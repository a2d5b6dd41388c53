#include "core/zerber_r_index.h"

namespace zr::core {

Status BuildEncryptedIndex(const text::Corpus& corpus, ZerberRClient* client) {
  if (client == nullptr) {
    return Status::InvalidArgument("client must not be null");
  }
  for (const text::Document& doc : corpus.documents()) {
    ZR_RETURN_IF_ERROR(client->IndexDocument(doc));
  }
  return Status::OK();
}

StorageReport ComputeStorageReport(const zerber::ShardedIndexService& index) {
  StorageReport report;
  report.elements = index.TotalElements();
  report.encrypted_index_bytes = index.TotalWireSize();
  report.bytes_per_element =
      report.elements == 0
          ? 0.0
          : static_cast<double>(report.encrypted_index_bytes) /
                static_cast<double>(report.elements);
  return report;
}

}  // namespace zr::core
