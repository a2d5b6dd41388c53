// zerber_stats: live scrape CLI for the cluster metrics plane.
//
// Polls the control plane (StatsRequest/StatsResponse, net/messages.h) of
// every address given and renders the v2 registry dump each server returns
// — the full process metrics registry in Prometheus text exposition format
// (src/obs/registry.h). Two renderings:
//
//  * --format=table (default): one merged table, one row per metric series,
//    one value column per scraped instance — a "top" for the cluster.
//  * --format=prom: the raw exposition text of every instance concatenated,
//    with an instance="<addr>" label injected into each series so the
//    output is directly ingestable by a Prometheus scraper.
//
// The router side of a deployment is a client library (cluster/router.h),
// not a server process — its registry (zr_router_*, zr_shard_client_*)
// reaches disk through the load harness report's "obs" block rather than
// this CLI. zerber_stats covers everything that listens: shard servers.
//
// Exit status is the gate CI relies on: 0 only when EVERY address returned
// a non-empty, parseable registry dump; 1 otherwise.
//
// --selftest spawns a 4-shard throwaway cluster (cluster/process.h, the
// same fork/exec path the cluster tests use), sends each shard one ping so
// the TCP counters are live, scrapes all four, and applies the same gate.
//
// Usage:
//   zerber_stats --addrs=HOST:PORT[,HOST:PORT...] [--format=table|prom]
//                [--out=FILE]
//   zerber_stats --selftest [--format=table|prom] [--out=FILE]

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/process.h"
#include "net/messages.h"
#include "net/tcp.h"
#include "util/status.h"
#include "util/statusor.h"

namespace {

using namespace zr;

/// One series of a Prometheus text exposition: `name value` or
/// `name{labels} value`. The value is kept as text so re-rendering never
/// drifts from what the server produced.
struct PromLine {
  std::string name;
  std::string labels;  ///< label body without braces; may be empty
  std::string value;
};

bool IsMetricNameChar(char c, bool first) {
  if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':') {
    return true;
  }
  return !first && std::isdigit(static_cast<unsigned char>(c));
}

/// Parses exposition text into series lines. Comment (#) and blank lines
/// are tolerated. Returns false (with *error set) on the first malformed
/// line — an unparseable scrape must fail the run, not render garbage.
bool ParsePromText(const std::string& text, std::vector<PromLine>* out,
                   std::string* error) {
  size_t pos = 0;
  size_t line_no = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty() || line[0] == '#') continue;

    PromLine parsed;
    size_t i = 0;
    while (i < line.size() && IsMetricNameChar(line[i], i == 0)) ++i;
    if (i == 0) {
      *error = "line " + std::to_string(line_no) + ": no metric name";
      return false;
    }
    parsed.name = line.substr(0, i);
    if (i < line.size() && line[i] == '{') {
      size_t close = line.find('}', i);
      if (close == std::string::npos) {
        *error = "line " + std::to_string(line_no) + ": unclosed label set";
        return false;
      }
      parsed.labels = line.substr(i + 1, close - i - 1);
      i = close + 1;
    }
    if (i >= line.size() || line[i] != ' ') {
      *error = "line " + std::to_string(line_no) + ": missing value";
      return false;
    }
    parsed.value = line.substr(i + 1);
    char* end = nullptr;
    std::strtod(parsed.value.c_str(), &end);
    if (parsed.value.empty() || end == nullptr || *end != '\0') {
      *error = "line " + std::to_string(line_no) + ": bad value '" +
               parsed.value + "'";
      return false;
    }
    out->push_back(std::move(parsed));
  }
  return true;
}

/// One control-plane round trip; returns the v2 registry dump. An empty
/// dump is an error by this tool's contract: a live server always has at
/// least its TCP counters registered.
StatusOr<std::string> Scrape(const std::string& addr) {
  net::TcpSession::Options options;
  options.deadlines = net::Deadlines::Of(/*connect_ms=*/5000,
                                         /*recv_ms=*/5000);
  net::TcpSession session(addr, options);
  ZR_ASSIGN_OR_RETURN(net::StatsResponse stats,
                      session.Call(net::StatsRequest{}));
  if (stats.registry_text.empty()) {
    return Status::Internal(addr + ": empty registry dump (pre-v2 server?)");
  }
  return std::move(stats.registry_text);
}

/// One liveness round trip so a freshly started server has served at least
/// one frame before the scrape (the selftest's counters are then non-zero).
Status Ping(const std::string& addr, uint64_t token) {
  net::TcpSession::Options options;
  options.deadlines = net::Deadlines::Of(/*connect_ms=*/5000,
                                         /*recv_ms=*/5000);
  net::TcpSession session(addr, options);
  net::PingRequest ping;
  ping.token = token;
  ZR_ASSIGN_OR_RETURN(net::PingResponse pong, session.Call(ping));
  if (pong.token != ping.token) {
    return Status::Internal(addr + ": ping token mismatch");
  }
  return Status::OK();
}

std::string RenderTable(
    const std::vector<std::string>& addrs,
    const std::vector<std::vector<PromLine>>& scrapes) {
  // Row key = series (name + labels); one value column per instance.
  std::map<std::string, std::map<size_t, std::string>> rows;
  for (size_t a = 0; a < scrapes.size(); ++a) {
    for (const PromLine& line : scrapes[a]) {
      std::string series = line.name;
      if (!line.labels.empty()) series += "{" + line.labels + "}";
      rows[series][a] = line.value;
    }
  }

  size_t series_width = std::strlen("series");
  for (const auto& [series, values] : rows) {
    series_width = std::max(series_width, series.size());
  }
  std::vector<size_t> col_width(addrs.size());
  for (size_t a = 0; a < addrs.size(); ++a) {
    col_width[a] = addrs[a].size();
    for (const auto& [series, values] : rows) {
      auto it = values.find(a);
      if (it != values.end()) {
        col_width[a] = std::max(col_width[a], it->second.size());
      }
    }
  }

  std::string out;
  auto append_cell = [&out](const std::string& text, size_t width,
                            bool last) {
    out += text;
    if (!last) out.append(width - text.size() + 2, ' ');
  };
  append_cell("series", series_width, false);
  for (size_t a = 0; a < addrs.size(); ++a) {
    append_cell(addrs[a], col_width[a], a + 1 == addrs.size());
  }
  out += '\n';
  for (const auto& [series, values] : rows) {
    append_cell(series, series_width, false);
    for (size_t a = 0; a < addrs.size(); ++a) {
      auto it = values.find(a);
      append_cell(it != values.end() ? it->second : "-", col_width[a],
                  a + 1 == addrs.size());
    }
    out += '\n';
  }
  return out;
}

std::string RenderProm(const std::vector<std::string>& addrs,
                       const std::vector<std::vector<PromLine>>& scrapes) {
  std::string out;
  for (size_t a = 0; a < scrapes.size(); ++a) {
    std::string instance = "instance=\"" + addrs[a] + "\"";
    for (const PromLine& line : scrapes[a]) {
      out += line.name;
      out += '{';
      out += instance;
      if (!line.labels.empty()) {
        out += ',';
        out += line.labels;
      }
      out += "} ";
      out += line.value;
      out += '\n';
    }
  }
  return out;
}

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --addrs=HOST:PORT[,HOST:PORT...] "
               "[--format=table|prom] [--out=FILE]\n"
               "       %s --selftest [--format=table|prom] [--out=FILE]\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string addrs_flag;
  std::string format = "table";
  std::string out_path;
  bool selftest = false;

  for (int i = 1; i < argc; ++i) {
    if (ParseFlag(argv[i], "--addrs", &addrs_flag)) {
    } else if (ParseFlag(argv[i], "--format", &format)) {
    } else if (ParseFlag(argv[i], "--out", &out_path)) {
    } else if (std::strcmp(argv[i], "--selftest") == 0) {
      selftest = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return Usage(argv[0]);
    }
  }
  if (format != "table" && format != "prom") {
    std::fprintf(stderr, "bad --format: %s\n", format.c_str());
    return Usage(argv[0]);
  }
  if (!selftest && addrs_flag.empty()) return Usage(argv[0]);

  // --selftest: a throwaway 4-shard cluster, pinged once per shard so the
  // TCP counters have moved before the scrape. Its data directory goes on
  // every exit path, after the shards (declared later, destroyed first)
  // have stopped.
  namespace fs = std::filesystem;
  struct RemovedOnExit {
    RemovedOnExit() = default;
    RemovedOnExit(const RemovedOnExit&) = delete;
    RemovedOnExit& operator=(const RemovedOnExit&) = delete;
    ~RemovedOnExit() {
      std::error_code ec;
      if (!dir.empty()) fs::remove_all(dir, ec);
    }
    fs::path dir;
  } selftest_dir;
  std::vector<std::unique_ptr<cluster::ShardProcess>> processes;
  std::vector<std::string> addrs;
  if (selftest) {
    selftest_dir.dir = fs::temp_directory_path() /
                       ("zerber_stats_selftest." + std::to_string(::getpid()));
    const fs::path& base = selftest_dir.dir;
    const size_t kShards = 4;
    for (size_t s = 0; s < kShards; ++s) {
      fs::path dir = base / ("shard-" + std::to_string(s));
      std::error_code ec;
      fs::create_directories(dir, ec);
      if (ec) {
        std::fprintf(stderr, "mkdir %s: %s\n", dir.c_str(),
                     ec.message().c_str());
        return 1;
      }
      std::vector<std::string> args = {
          "--shard=" + std::to_string(s),
          "--shards=" + std::to_string(kShards),
          "--lists=64",
          "--data-dir=" + dir.string(),
          "--listen=127.0.0.1:0",
          "--sync=none",
      };
      auto started =
          cluster::ShardProcess::Start(cluster::ShardServerBinary(), args);
      if (!started.ok()) {
        std::fprintf(stderr, "selftest: shard %zu failed to start: %s\n", s,
                     started.status().ToString().c_str());
        return 1;
      }
      addrs.push_back((*started)->addr());
      processes.push_back(std::move(*started));
    }
    for (size_t s = 0; s < addrs.size(); ++s) {
      Status pinged = Ping(addrs[s], 0x5e1f7e57 + s);
      if (!pinged.ok()) {
        std::fprintf(stderr, "selftest: ping %s: %s\n", addrs[s].c_str(),
                     pinged.ToString().c_str());
        return 1;
      }
    }
  } else {
    size_t pos = 0;
    while (pos <= addrs_flag.size()) {
      size_t comma = addrs_flag.find(',', pos);
      if (comma == std::string::npos) comma = addrs_flag.size();
      if (comma > pos) addrs.push_back(addrs_flag.substr(pos, comma - pos));
      pos = comma + 1;
    }
    if (addrs.empty()) return Usage(argv[0]);
  }

  // The gate: every instance must return a non-empty, parseable dump.
  std::vector<std::vector<PromLine>> scrapes(addrs.size());
  for (size_t a = 0; a < addrs.size(); ++a) {
    auto text = Scrape(addrs[a]);
    if (!text.ok()) {
      std::fprintf(stderr, "scrape %s: %s\n", addrs[a].c_str(),
                   text.status().ToString().c_str());
      return 1;
    }
    std::string error;
    if (!ParsePromText(*text, &scrapes[a], &error)) {
      std::fprintf(stderr, "scrape %s: unparseable exposition: %s\n",
                   addrs[a].c_str(), error.c_str());
      return 1;
    }
    if (scrapes[a].empty()) {
      std::fprintf(stderr, "scrape %s: no series\n", addrs[a].c_str());
      return 1;
    }
  }

  std::string rendered = format == "table" ? RenderTable(addrs, scrapes)
                                           : RenderProm(addrs, scrapes);
  if (out_path.empty()) {
    std::fputs(rendered.c_str(), stdout);
  } else {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "open %s: %s\n", out_path.c_str(),
                   std::strerror(errno));
      return 1;
    }
    std::fputs(rendered.c_str(), f);
    std::fclose(f);
  }

  for (auto& process : processes) {
    Status stopped = process->Terminate();
    if (!stopped.ok()) {
      std::fprintf(stderr, "selftest: shutdown: %s\n",
                   stopped.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
