#!/usr/bin/env python3
"""Confidentiality gate: no plaintext may cross the sealed boundary.

The paper's server is untrusted: everything it stores or receives beyond
ACL metadata must be ciphertext (zerber::SealedBytes, produced by
crypto::Seal). This lint audits the boundary translation units — the
generic field-list encoders in src/util/codec.h, the frame encoders in
src/net/messages.* and the WAL writer in src/store/wal.* plus
tools/shard_server.cc — and fails when plaintext-typed values flow into
them.

Three rules:

  plaintext-type-at-boundary   The plaintext payload vocabulary
                               (PostingPayload, SerializePayload,
                               ParsePayload, OpenPostingElement,
                               OpenSnippet) must not appear in a boundary
                               TU at all; payloads are sealed client-side
                               before they reach an encoder.
  tainted-flow                 A local initialized from a plaintext source
                               must not be passed to a byte sink
                               (PutLengthPrefixed, PutBytes, .append,
                               Append, WriteFully) later in the same
                               function.
  adopt-outside-allowlist      SealedBytes::Adopt — the single blessed way
                               to wrap raw bytes as ciphertext — may only
                               be called in the audited seal/parse
                               boundary (src/zerber/posting_element.cc).

Engines: libclang (python3-clang) when importable for an AST-accurate
walk; otherwise a token-level fallback that strips comments/strings and
tracks per-function taint. Both report identical finding tuples so
--self-test pins either engine against the fixtures in
tools/testdata/check_sealed/ (expected findings are annotated in the
fixtures themselves as `// expect-finding: <rule>` on the offending line).

Usage:
    tools/check_sealed.py [--repo-root DIR] [--json OUT] [--sarif OUT]
    tools/check_sealed.py --self-test [--engine fallback|libclang]

Exit codes (check_links.py convention): 0 clean, 1 findings (or self-test
mismatch), 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys
from typing import Iterable, List, NamedTuple, Optional, Sequence

# Boundary TUs relative to the repo root: everything these encode crosses
# to the untrusted server (wire frames) or to disk it controls (WAL) — or,
# for the obs/ TUs and the scrape CLI, is observable telemetry the sealed
# model says may carry numeric ids only, never terms or plaintext.
BOUNDARY_FILES = (
    "src/util/codec.h",
    "src/net/messages.h",
    "src/net/messages.cc",
    "src/store/wal.h",
    "src/store/wal.cc",
    "src/obs/counter_set.h",
    "src/obs/metrics.h",
    "src/obs/metrics.cc",
    "src/obs/registry.h",
    "src/obs/registry.cc",
    "src/obs/trace.h",
    "src/obs/trace.cc",
    "src/obs/slow_op_log.h",
    "src/obs/slow_op_log.cc",
    "tools/shard_server.cc",
    "tools/zerber_stats.cc",
)

# Files allowed to call SealedBytes::Adopt: the seal/open implementations
# themselves, where bytes provably come from crypto::Seal or from parsing
# previously sealed frames.
ADOPT_ALLOWLIST = (
    "src/zerber/posting_element.cc",
)

# Identifiers that mean plaintext is in scope. OpenSnippet names no code
# any more; it stays so a snippet opener never reaches a boundary and the
# fixtures keep their findings.
PLAINTEXT_IDENTIFIERS = (
    "PostingPayload",
    "SerializePayload",
    "ParsePayload",
    "OpenPostingElement",
    "OpenSnippet",
)

# Calls that emit bytes toward the boundary.
SINK_NAMES = (
    "PutLengthPrefixed",
    "PutBytes",
    "Append",
    "WriteFully",
    "append",
)

RULE_BOUNDARY = "plaintext-type-at-boundary"
RULE_TAINT = "tainted-flow"
RULE_ADOPT = "adopt-outside-allowlist"

_SOURCE_CALL_RE = re.compile(
    r"\b(?:std::string|auto)\s+(\w+)\s*=[^;]*\b("
    + "|".join(PLAINTEXT_IDENTIFIERS)
    + r")\s*\("
)
_ADOPT_RE = re.compile(r"\bSealedBytes::Adopt\s*\(")
_FUNC_TOP_RE = re.compile(r"^[}\w]")  # column-0 token: new toplevel entity


class Finding(NamedTuple):
    file: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.file}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving line structure.

    Keeps the scanner from flagging identifiers that only occur in
    documentation or log messages.
    """
    out: List[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif ch == "/" and nxt == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
        elif ch in "\"'":
            quote = ch
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                elif text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def scan_boundary_tu(path: pathlib.Path, rel: str) -> List[Finding]:
    """Fallback engine: scan one boundary TU for the first two rules."""
    findings: List[Finding] = []
    text = strip_comments_and_strings(path.read_text(encoding="utf-8"))
    lines = text.split("\n")

    plaintext_re = re.compile(
        r"\b(" + "|".join(PLAINTEXT_IDENTIFIERS) + r")\b"
    )
    sink_re = re.compile(
        r"(?:\b|\.)(" + "|".join(SINK_NAMES) + r")\s*\(([^;]*)"
    )

    tainted: dict = {}
    for lineno, line in enumerate(lines, start=1):
        # New toplevel function/entity: locals go out of scope.
        if _FUNC_TOP_RE.match(line):
            tainted = {}

        for match in plaintext_re.finditer(line):
            findings.append(
                Finding(
                    rel,
                    lineno,
                    RULE_BOUNDARY,
                    f"plaintext identifier '{match.group(1)}' inside a "
                    "boundary TU; payloads must be sealed before they "
                    "reach an encoder",
                )
            )

        source = _SOURCE_CALL_RE.search(line)
        if source:
            tainted[source.group(1)] = source.group(2)

        for sink in sink_re.finditer(line):
            args = sink.group(2)
            for var, origin in tainted.items():
                if re.search(rf"\b{re.escape(var)}\b", args):
                    findings.append(
                        Finding(
                            rel,
                            lineno,
                            RULE_TAINT,
                            f"'{var}' (from {origin}) flows into byte "
                            f"sink {sink.group(1)} without crypto::Seal",
                        )
                    )
    return findings


def scan_adopt_calls(
    repo_root: pathlib.Path, files: Iterable[pathlib.Path]
) -> List[Finding]:
    findings: List[Finding] = []
    allow = {str(pathlib.PurePosixPath(p)) for p in ADOPT_ALLOWLIST}
    for path in files:
        rel = path.relative_to(repo_root).as_posix()
        if rel in allow:
            continue
        text = strip_comments_and_strings(path.read_text(encoding="utf-8"))
        for lineno, line in enumerate(text.split("\n"), start=1):
            if _ADOPT_RE.search(line):
                findings.append(
                    Finding(
                        rel,
                        lineno,
                        RULE_ADOPT,
                        "SealedBytes::Adopt outside the audited seal/parse "
                        "boundary (allowlist: "
                        + ", ".join(ADOPT_ALLOWLIST)
                        + ")",
                    )
                )
    return findings


def try_libclang() -> Optional[object]:
    """Returns the clang.cindex module when usable, else None."""
    try:
        from clang import cindex  # type: ignore[import-not-found]

        cindex.Index.create()
        return cindex
    except Exception:  # pragma: no cover - environment-dependent
        return None


def scan_boundary_tu_libclang(
    cindex: object, path: pathlib.Path, rel: str
) -> List[Finding]:  # pragma: no cover - requires libclang
    """AST engine: same two boundary rules, via a real parse.

    Identifier references resolve through the cursor graph, so hits in
    comments/strings are impossible by construction and taint tracks
    DeclRefExprs instead of token names.
    """
    import clang.cindex as ci  # type: ignore[import-not-found]

    assert cindex is not None
    index = ci.Index.create()
    tu = index.parse(
        str(path),
        args=["-std=c++20", "-I", str(path.parents[2] / "src")],
        options=ci.TranslationUnit.PARSE_SKIP_FUNCTION_BODIES * 0,
    )
    findings: List[Finding] = []
    tainted_vars: dict = {}

    def walk(node: "ci.Cursor") -> None:
        if node.location.file and node.location.file.name != str(path):
            return
        name = node.spelling or ""
        if (
            node.kind
            in (ci.CursorKind.DECL_REF_EXPR, ci.CursorKind.TYPE_REF)
            and any(p in name for p in PLAINTEXT_IDENTIFIERS)
        ):
            findings.append(
                Finding(
                    rel,
                    node.location.line,
                    RULE_BOUNDARY,
                    f"plaintext identifier '{name}' inside a boundary TU; "
                    "payloads must be sealed before they reach an encoder",
                )
            )
        if node.kind == ci.CursorKind.VAR_DECL:
            tokens = " ".join(t.spelling for t in node.get_tokens())
            for p in PLAINTEXT_IDENTIFIERS:
                if p + " (" in tokens or p + "(" in tokens:
                    tainted_vars[node.spelling] = p
        if node.kind == ci.CursorKind.CALL_EXPR and node.spelling in SINK_NAMES:
            for arg in node.get_arguments():
                for tok in arg.get_tokens():
                    if tok.spelling in tainted_vars:
                        findings.append(
                            Finding(
                                rel,
                                node.location.line,
                                RULE_TAINT,
                                f"'{tok.spelling}' (from "
                                f"{tainted_vars[tok.spelling]}) flows into "
                                f"byte sink {node.spelling} without "
                                "crypto::Seal",
                            )
                        )
        for child in node.get_children():
            walk(child)

    walk(tu.cursor)
    return findings


def collect_cc_files(repo_root: pathlib.Path) -> List[pathlib.Path]:
    files: List[pathlib.Path] = []
    for sub in ("src", "tools"):
        root = repo_root / sub
        if root.is_dir():
            files.extend(sorted(root.rglob("*.cc")))
            files.extend(sorted(root.rglob("*.h")))
    # The lint's own fixtures are deliberately leaky; they are exercised by
    # --self-test, not the production scan.
    return [f for f in files if "testdata" not in f.parts]


def run_scan(
    repo_root: pathlib.Path, engine: str
) -> List[Finding]:
    cindex = try_libclang() if engine in ("auto", "libclang") else None
    if engine == "libclang" and cindex is None:
        sys.exit("error: --engine libclang requested but libclang is unusable")

    findings: List[Finding] = []
    for rel in BOUNDARY_FILES:
        path = repo_root / rel
        if not path.exists():
            sys.exit(f"error: boundary TU {rel} missing — update "
                     "BOUNDARY_FILES in tools/check_sealed.py")
        if cindex is not None:
            findings.extend(scan_boundary_tu_libclang(cindex, path, rel))
        else:
            findings.extend(scan_boundary_tu(path, rel))
    findings.extend(scan_adopt_calls(repo_root, collect_cc_files(repo_root)))
    return findings


def expected_fixture_findings(fixture: pathlib.Path) -> List[tuple]:
    """Reads `// expect-finding: <rule>` annotations (exact line pins)."""
    expected = []
    for lineno, line in enumerate(
        fixture.read_text(encoding="utf-8").splitlines(), start=1
    ):
        match = re.search(r"//\s*expect-finding:\s*([\w-]+)", line)
        if match:
            expected.append((fixture.name, lineno, match.group(1)))
    return expected


def self_test(repo_root: pathlib.Path, engine: str) -> int:
    fixtures_dir = repo_root / "tools" / "testdata" / "check_sealed"
    fixtures = sorted(fixtures_dir.glob("*.cc"))
    if len(fixtures) < 4:
        print(f"error: expected >= 4 fixtures in {fixtures_dir}",
              file=sys.stderr)
        return 2

    cindex = try_libclang() if engine in ("auto", "libclang") else None
    if engine == "libclang" and cindex is None:
        print("error: --engine libclang requested but libclang is unusable",
              file=sys.stderr)
        return 2
    engine_name = "libclang" if cindex is not None else "fallback"

    failures: List[str] = []
    for fixture in fixtures:
        if cindex is not None:
            found = scan_boundary_tu_libclang(cindex, fixture, fixture.name)
        else:
            found = scan_boundary_tu(fixture, fixture.name)
        found_adopt = scan_adopt_calls(repo_root, [fixture])
        # Fixtures live outside the allowlist by construction; fold the
        # adopt rule in under the fixture's basename for comparison.
        got = sorted(
            {(f.file.split("/")[-1], f.line, f.rule)
             for f in found + found_adopt}
        )
        want = sorted(set(expected_fixture_findings(fixture)))
        if got != want:
            failures.append(
                f"{fixture.name}: engine={engine_name}\n"
                f"    want: {want}\n    got:  {got}"
            )

    if failures:
        print("SELF-TEST FAILURES:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"check_sealed self-test passed "
          f"({len(fixtures)} fixtures, engine={engine_name})")
    return 0


def write_json(findings: Sequence[Finding], path: str) -> None:
    doc = {"findings": [f._asdict() for f in findings]}
    with open(path, "w", encoding="utf-8") as out:
        json.dump(doc, out, indent=2)
        out.write("\n")


def write_sarif(findings: Sequence[Finding], path: str) -> None:
    runs = {
        "tool": {
            "driver": {
                "name": "check_sealed",
                "informationUri": "tools/check_sealed.py",
                "rules": [
                    {"id": rule}
                    for rule in (RULE_BOUNDARY, RULE_TAINT, RULE_ADOPT)
                ],
            }
        },
        "results": [
            {
                "ruleId": f.rule,
                "level": "error",
                "message": {"text": f.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {"uri": f.file},
                            "region": {"startLine": f.line},
                        }
                    }
                ],
            }
            for f in findings
        ],
    }
    doc = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [runs],
    }
    with open(path, "w", encoding="utf-8") as out:
        json.dump(doc, out, indent=2)
        out.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo-root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--engine", choices=("auto", "libclang", "fallback"),
                        default="auto")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the scanner against its fixtures")
    parser.add_argument("--json", metavar="OUT",
                        help="write findings as JSON")
    parser.add_argument("--sarif", metavar="OUT",
                        help="write findings as SARIF 2.1.0")
    args = parser.parse_args()

    repo_root = pathlib.Path(args.repo_root).resolve()
    if not (repo_root / "src").is_dir():
        print(f"error: {repo_root} does not look like the repo root",
              file=sys.stderr)
        return 2

    if args.self_test:
        return self_test(repo_root, args.engine)

    findings = run_scan(repo_root, args.engine)
    if args.json:
        write_json(findings, args.json)
    if args.sarif:
        write_sarif(findings, args.sarif)

    if findings:
        print("SEALED-BOUNDARY VIOLATIONS:", file=sys.stderr)
        for finding in findings:
            print(f"  {finding.render()}", file=sys.stderr)
        return 1
    print(f"sealed-boundary check passed "
          f"({len(BOUNDARY_FILES)} boundary TUs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
