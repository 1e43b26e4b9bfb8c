#!/usr/bin/env python3
"""SECRETA privacy-boundary flow linter.

Companion to the Sensitive<T> taint wrappers (src/common/sensitive.h) and
the SECRETA_SENSITIVE / SECRETA_DECLASSIFIES annotations
(src/common/annotations.h). The compiler already blocks *implicit* flows of
raw microdata — a Sensitive value cannot convert, stream, or compare its way
into a serving response. This linter closes the *explicit* escape hatches so
that unwrapping raw data stays an engine-side privilege and declassification
stays a short, reviewed list:

  serve-raw-include   Files under src/serve/ must not directly include the
                      raw-data headers (data/dataset.h, data/format.h,
                      data/column_provider.h, data/dataset_ops.h,
                      data/mmap_file.h). The sole exception is
                      serve/catalog.h + serve/catalog.cc — the serving side's
                      sanctioned crossing (PublishedRelease::Create, which
                      anonymizes before anything escapes). Every other serve
                      file sees released data only through catalog.h.

  serve-service-include
                      Files under src/serve/ must not include a src/service/
                      header. COUNTs are answered inline on the connection
                      handler; the batch job service (JobScheduler) sits
                      beside the serving layer, not under it, and its
                      headers pull the evaluator into serve/ transitively.

  obs-no-sensitive    src/obs/ (metrics, traces, slow-query log, Prometheus
                      text) must never reach common/sensitive.h through the
                      include graph, transitively, and must never spell
                      Sensitive / SensitiveSpan / .raw(). Telemetry is the
                      easiest exfiltration channel — a metric label is a
                      public string — so the whole module is taint-free by
                      construction.

  sensitive-raw       `.raw()` (the Sensitive/SensitiveSpan unwrap) may be
                      spelled only in the engine-side modules
                      (src/{algo,common,core,csv,data,datagen,engine,
                      frontend,hierarchy,kernels,metrics,policy,query}/).
                      The boundary-external modules (src/serve/, src/obs/)
                      must go through Declassify() inside an annotated
                      declassifier instead. tests/, bench/ and examples/ are
                      trusted harness code and exempt.

  declassify-audit    Every Declassify( call site must (a) live in a file on
                      the closed declassifier list below, (b) be preceded
                      within a few lines by a `// declassify:` comment
                      stating the guarantee that justifies the crossing, and
                      (c) sit in a file whose paired header (or the file
                      itself) carries SECRETA_DECLASSIFIES. Adding a new
                      declassifier therefore requires editing DECLASSIFIER_
                      FILES here — a one-line diff that code review cannot
                      miss.

  declassifies-inventory
                      Conversely, every SECRETA_DECLASSIFIES annotation must
                      appear only in declassifier files (or the macro's own
                      definition), so the annotation keeps meaning "this is
                      one of the N sanctioned crossings" rather than
                      decaying into decoration.

Run from the repo root (or pass --root). Exits non-zero with one
"path:line: rule: message" diagnostic per violation. Suppress a single line
with a trailing `// lint:allow <rule>` comment and a reason.

Wired into ctest as `lint.check_privacy_flow` (label: lint) plus the
WILL_FAIL `lint.privacy_flow_detects` test, which runs this script against
tools/lint/testdata/privacy_violation/ and passes only if the seeded
violations are caught — proving the linter itself is still live.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# Headers whose inclusion grants access to raw microdata accessors.
RAW_DATA_HEADERS = {
    "data/dataset.h",
    "data/dataset_ops.h",
    "data/column_provider.h",
    "data/format.h",
    "data/mmap_file.h",
}

# The serving side's sanctioned crossing: anonymizes before anything escapes.
SERVE_RAW_EXCEPTIONS = {"src/serve/catalog.h", "src/serve/catalog.cc"}

# Engine-side modules where unwrapping a Sensitive value with .raw() is part
# of the job (the algorithms *compute on* raw microdata; what they must not
# do is ship it out, which the serve/obs rules cover).
RAW_ALLOWED_MODULES = {
    "algo", "common", "core", "csv", "data", "datagen", "engine",
    "frontend", "hierarchy", "kernels", "metrics", "policy", "query",
}

# The closed list of declassifiers. A Declassify( call or a
# SECRETA_DECLASSIFIES annotation anywhere else is a violation: extending
# the privacy boundary requires a diff to this list.
DECLASSIFIER_FILES = {
    "src/core/recoding.h",
    "src/core/recoding.cc",
    "src/serve/catalog.h",
    "src/serve/catalog.cc",
}

# Files that may mention the annotation machinery without being
# declassifiers themselves (the macro definition and the wrapper types).
ANNOTATION_DEFINITION_FILES = {
    "src/common/annotations.h",
    "src/common/sensitive.h",
}

SENSITIVE_HEADER = "common/sensitive.h"

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
ALLOW_RE = re.compile(r"//\s*lint:allow\s+([\w-]+)")
RAW_UNWRAP_RE = re.compile(r"\.raw\s*\(\s*\)")
SENSITIVE_TOKEN_RE = re.compile(r"\b(Sensitive|SensitiveSpan)\s*<")
DECLASSIFY_CALL_RE = re.compile(r"(^|[^\w:])Declassify\s*\(")
DECLASSIFIES_TOKEN_RE = re.compile(r"\bSECRETA_DECLASSIFIES\b")
DECLASSIFY_COMMENT_RE = re.compile(r"//\s*declassify:")

# How far above a Declassify( call the justifying `// declassify:` comment
# may sit (comments usually span 2-4 lines).
DECLASSIFY_COMMENT_WINDOW = 8


def strip_comments(line: str) -> str:
    """Removes // comments and a best-effort pass at string literals."""
    line = re.sub(r'"([^"\\]|\\.)*"', '""', line)
    return line.split("//", 1)[0]


def allowed(raw_line: str, rule: str) -> bool:
    m = ALLOW_RE.search(raw_line)
    return m is not None and m.group(1) == rule


def read_lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8", errors="replace").splitlines()


def build_include_graph(root: Path) -> dict[str, set[str]]:
    """Maps src-relative path -> set of src-relative quoted includes."""
    graph: dict[str, set[str]] = {}
    src = root / "src"
    for path in sorted(src.rglob("*.h")) + sorted(src.rglob("*.cc")):
        rel = path.relative_to(src).as_posix()
        targets: set[str] = set()
        for line in read_lines(path):
            m = INCLUDE_RE.match(line)
            if m and (src / m.group(1)).exists():
                targets.add(m.group(1))
        graph[rel] = targets
    return graph


def reaches(graph: dict[str, set[str]], start: str, goal: str) -> bool:
    """True if `goal` is reachable from `start` in the include graph."""
    seen: set[str] = set()
    stack = [start]
    while stack:
        node = stack.pop()
        if node == goal:
            return True
        if node in seen:
            continue
        seen.add(node)
        stack.extend(graph.get(node, ()))
    return False


def module_of(rel: str) -> str | None:
    """Top-level src/ module of a repo-relative path, or None."""
    parts = rel.split("/")
    if len(parts) >= 3 and parts[0] == "src":
        return parts[1]
    return None


def check_file(root: Path, path: Path, rel: str,
               graph: dict[str, set[str]], errors: list[str]) -> None:
    module = module_of(rel)
    is_serve = module == "serve"
    is_obs = module == "obs"
    lines = read_lines(path)

    has_declassifies = any(DECLASSIFIES_TOKEN_RE.search(strip_comments(l))
                           for l in lines)
    # A .cc inherits the annotation from its paired header: the convention
    # is to annotate the declaration, not the definition.
    if not has_declassifies and rel.endswith(".cc"):
        header = path.with_suffix(".h")
        if header.exists():
            has_declassifies = any(
                DECLASSIFIES_TOKEN_RE.search(strip_comments(l))
                for l in read_lines(header))

    for lineno, raw in enumerate(lines, start=1):
        code = strip_comments(raw)

        m = INCLUDE_RE.match(raw)
        if (m and is_serve and rel not in SERVE_RAW_EXCEPTIONS
                and m.group(1) in RAW_DATA_HEADERS):
            if not allowed(raw, "serve-raw-include"):
                errors.append(
                    f"{rel}:{lineno}: serve-raw-include: serve/ sees "
                    f'released data only through serve/catalog.h; including '
                    f'"{m.group(1)}" here bypasses the privacy boundary')

        if (m and is_serve and m.group(1).startswith("service/")
                and not allowed(raw, "serve-service-include")):
            errors.append(
                f"{rel}:{lineno}: serve-service-include: serve/ must not "
                f'depend on the batch job service; "{m.group(1)}" '
                "belongs beside the serving layer, not under it")

        if is_obs:
            if m and m.group(1) == SENSITIVE_HEADER:
                errors.append(
                    f"{rel}:{lineno}: obs-no-sensitive: telemetry code must "
                    "never include common/sensitive.h — a metric label or "
                    "trace tag is a public string")
            if SENSITIVE_TOKEN_RE.search(code) or RAW_UNWRAP_RE.search(code):
                if not allowed(raw, "obs-no-sensitive"):
                    errors.append(
                        f"{rel}:{lineno}: obs-no-sensitive: Sensitive "
                        "values must not flow into telemetry; pass an "
                        "aggregate or a redacted label instead")

        if (module is not None and module not in RAW_ALLOWED_MODULES
                and RAW_UNWRAP_RE.search(code)):
            if not allowed(raw, "sensitive-raw"):
                errors.append(
                    f"{rel}:{lineno}: sensitive-raw: .raw() unwrapping is "
                    f"engine-side only (src/{module}/ is outside the "
                    "boundary); cross via Declassify() inside a "
                    "SECRETA_DECLASSIFIES function on the closed list in "
                    "tools/lint/check_privacy_flow.py")

        if (DECLASSIFY_CALL_RE.search(code)
                and rel not in ANNOTATION_DEFINITION_FILES):
            if allowed(raw, "declassify-audit"):
                continue
            if rel not in DECLASSIFIER_FILES:
                errors.append(
                    f"{rel}:{lineno}: declassify-audit: Declassify() may "
                    "only be called from the closed declassifier list "
                    "(DECLASSIFIER_FILES in tools/lint/"
                    "check_privacy_flow.py); add this file there — with "
                    "review — or keep the value wrapped")
            window = lines[max(0, lineno - 1 - DECLASSIFY_COMMENT_WINDOW):
                           lineno]
            if not any(DECLASSIFY_COMMENT_RE.search(l) for l in window):
                errors.append(
                    f"{rel}:{lineno}: declassify-audit: every Declassify() "
                    "call needs a `// declassify:` comment within the "
                    f"preceding {DECLASSIFY_COMMENT_WINDOW} lines stating "
                    "the guarantee that justifies the crossing")
            if not has_declassifies:
                errors.append(
                    f"{rel}:{lineno}: declassify-audit: Declassify() is "
                    "only legal inside a function marked "
                    "SECRETA_DECLASSIFIES (annotate the declaration in "
                    "this file's header)")

        if (DECLASSIFIES_TOKEN_RE.search(code)
                and rel not in DECLASSIFIER_FILES
                and rel not in ANNOTATION_DEFINITION_FILES):
            if not allowed(raw, "declassifies-inventory"):
                errors.append(
                    f"{rel}:{lineno}: declassifies-inventory: "
                    "SECRETA_DECLASSIFIES marks one of the sanctioned "
                    "boundary crossings; new declassifiers must be added "
                    "to DECLASSIFIER_FILES in tools/lint/"
                    "check_privacy_flow.py")


def check_obs_reachability(root: Path, graph: dict[str, set[str]],
                           errors: list[str]) -> None:
    for node in sorted(graph):
        if node.startswith("obs/") and reaches(graph, node, SENSITIVE_HEADER):
            errors.append(
                f"src/{node}:1: obs-no-sensitive: include graph reaches "
                "common/sensitive.h from telemetry code (run "
                "`grep -rn 'include' src/obs` and cut the edge)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".", help="repository root")
    args = parser.parse_args()
    root = Path(args.root).resolve()

    src = root / "src"
    if not src.is_dir():
        print(f"error: {src} is not a directory (wrong --root?)",
              file=sys.stderr)
        return 2

    graph = build_include_graph(root)
    errors: list[str] = []
    check_obs_reachability(root, graph, errors)

    checked = 0
    for path in sorted(src.rglob("*.cc")) + sorted(src.rglob("*.h")):
        rel = path.relative_to(root).as_posix()
        check_file(root, path, rel, graph, errors)
        checked += 1

    for err in errors:
        print(err)
    print(f"check_privacy_flow: {checked} files, {len(errors)} violation(s)",
          file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
