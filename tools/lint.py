#!/usr/bin/env python3
"""Repo invariant linter (fast, dependency-free; runs in CI before the
compilers do). Five checks, each guarding a discipline the toolchain
alone cannot enforce everywhere:

1. no-raw-mutex: raw std::mutex / std::lock_guard / std::unique_lock /
   std::scoped_lock / std::condition_variable (and their headers) are
   forbidden outside src/util/. std types cannot carry Clang capability
   attributes, so locked state declared with them is invisible to the
   thread-safety analysis; everything must go through util::Mutex /
   util::MutexLock / util::CondVar (src/util/mutex.h).

2. guarded-by: every util::Mutex declared in src/ must protect
   something — at least one GUARDED_BY/PT_GUARDED_BY/REQUIRES/ACQUIRE/
   EXCLUDES reference to it in the same file. A mutex that exists
   purely as a condition-variable handshake (no guarded data) must say
   so with a `lint:allow-unguarded-mutex` comment carrying a reason.
   Scoped to src/: test-local scratch mutexes are not module state.

3. test-includes: tests/ must include code under test through the
   public module headers ("module/header.h" relative to src/), never
   with path-relative escapes ("../", "src/...") that bypass the
   include layout the library exports.

4. decoder-coverage: every untrusted-input entry point declared in a
   src/ header — any function named Decode<X>/Deserialize*/Replay* —
   must be mapped to a registered fuzz target in fuzz/targets.manifest,
   and every manifest line must name a target whose
   fuzz/targets/<target>_fuzz.cc exists. A decoder that genuinely
   cannot see attacker bytes (e.g. input already integrity-checked
   upstream) must say why with a `lint:allow-unfuzzed <reason>` comment
   on or immediately above its declaration. This is what keeps the
   fuzz/ subsystem complete as new wire messages and on-disk formats
   are added (DESIGN.md §15).

5. service-layering: no file under src/service/ may #include a dist/,
   ingest/, cluster/, net/ or shard/ header. The service layer sits
   below every backend: those modules implement service::Backend
   (src/service/backend.h) and include service/, never the reverse
   (DESIGN.md §6).

Exit status 0 = clean, 1 = violations (one line each on stdout).
--self-test seeds synthetic violations of every check against an
in-memory file set and verifies each one is caught (CI runs it so a
regex regression cannot silently disable a check).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCAN_DIRS = ("src", "tests", "examples", "bench")
CXX_SUFFIXES = {".h", ".hpp", ".cc", ".cpp", ".cxx"}

RAW_MUTEX_RE = re.compile(
    r"std::(mutex|shared_mutex|recursive_mutex|timed_mutex|lock_guard|"
    r"unique_lock|scoped_lock|shared_lock|condition_variable(_any)?)\b"
)
RAW_MUTEX_INCLUDE_RE = re.compile(
    r'#\s*include\s*<(mutex|shared_mutex|condition_variable)>'
)
# `std::adopt_lock` / `std::defer_lock` tags are fine: they configure
# util::MutexLock, not a raw lock.
RAW_MUTEX_ALLOWED_RE = re.compile(r"std::(adopt|defer|try_to)_lock\b")

MUTEX_MEMBER_RE = re.compile(
    r"(?:mutable\s+)?(?:util::|approxql::util::)?Mutex\s+(\w+)\s*;"
)
ALLOW_UNGUARDED_RE = re.compile(r"lint:allow-unguarded-mutex\s*\S")

TEST_INCLUDE_RE = re.compile(r'#\s*include\s*"((?:\.\./|src/)[^"]*)"')

# Untrusted-byte entry points: free functions or methods whose name
# marks them as parsing serialized input. Requires a following '(' so
# mentions in prose or string literals do not count.
DECODER_DECL_RE = re.compile(
    r"\b(Decode[A-Z]\w*|Deserialize\w*|Replay\w*)\s*\(")
ALLOW_UNFUZZED_RE = re.compile(r"lint:allow-unfuzzed\s*\S")
MANIFEST_PATH = "fuzz/targets.manifest"
FUZZ_TARGET_DIR = "fuzz/targets"

SERVICE_UPWARD_INCLUDE_RE = re.compile(
    r'#\s*include\s*"((?:dist|ingest|cluster|net|shard)/[^"]*)"')

COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)


def strip_comments(text: str) -> str:
    """Blank out comments, preserving line numbers."""
    def blank(match: re.Match) -> str:
        return re.sub(r"[^\n]", " ", match.group(0))
    return COMMENT_RE.sub(blank, text)


def check_no_raw_mutex(rel: str, text: str, errors: list[str]) -> None:
    if rel.startswith("src/util/"):
        return
    code = strip_comments(text)
    for lineno, line in enumerate(code.splitlines(), start=1):
        match = RAW_MUTEX_RE.search(line)
        if match and not RAW_MUTEX_ALLOWED_RE.search(match.group(0)):
            errors.append(
                f"{rel}:{lineno}: raw {match.group(0)} outside src/util/ "
                f"(use util::Mutex / util::MutexLock / util::CondVar from "
                f"util/mutex.h so the thread-safety analysis sees it)")
        if RAW_MUTEX_INCLUDE_RE.search(line):
            errors.append(
                f"{rel}:{lineno}: direct include of a std locking header "
                f"outside src/util/ (include \"util/mutex.h\" instead)")


def check_guarded_by(rel: str, text: str, errors: list[str]) -> None:
    if not rel.startswith("src/") or rel.startswith("src/util/"):
        return
    lines = text.splitlines()
    code = strip_comments(text)
    for lineno, line in enumerate(code.splitlines(), start=1):
        match = MUTEX_MEMBER_RE.search(line)
        if not match:
            continue
        name = match.group(1)
        uses = re.compile(
            r"(GUARDED_BY|PT_GUARDED_BY|REQUIRES|ACQUIRE|RELEASE|EXCLUDES|"
            r"RETURN_CAPABILITY|ASSERT_CAPABILITY)\s*\(\s*[\w>.\-]*" +
            re.escape(name) + r"\s*\)")
        if uses.search(code):
            continue
        # The waiver lives in a comment, so search the *unstripped*
        # source: the declaration line plus the contiguous //-comment
        # block immediately above it.
        first = lineno - 1
        while first > 0 and lines[first - 1].lstrip().startswith("//"):
            first -= 1
        context = "\n".join(lines[first:lineno])
        if ALLOW_UNGUARDED_RE.search(context):
            continue
        errors.append(
            f"{rel}:{lineno}: util::Mutex member '{name}' has no "
            f"GUARDED_BY/REQUIRES user in this file; annotate the state it "
            f"protects, or mark the declaration with "
            f"'// lint:allow-unguarded-mutex <reason>'")


def check_test_includes(rel: str, text: str, errors: list[str]) -> None:
    if not rel.startswith("tests/"):
        return
    code = strip_comments(text)
    for lineno, line in enumerate(code.splitlines(), start=1):
        match = TEST_INCLUDE_RE.search(line)
        if match:
            errors.append(
                f"{rel}:{lineno}: test includes \"{match.group(1)}\" — "
                f"include the public module header relative to src/ "
                f"(e.g. \"service/thread_pool.h\") instead of bypassing "
                f"the exported include layout")


def check_service_layering(rel: str, text: str, errors: list[str]) -> None:
    if not rel.startswith("src/service/"):
        return
    code = strip_comments(text)
    for lineno, line in enumerate(code.splitlines(), start=1):
        match = SERVICE_UPWARD_INCLUDE_RE.search(line)
        if match:
            errors.append(
                f"{rel}:{lineno}: src/service/ includes \"{match.group(1)}\" "
                f"— the service layer sits below every backend; program "
                f"against service/backend.h and let the backend module "
                f"implement it")


def parse_manifest(manifest_text: str, target_files: set[str],
                   errors: list[str]) -> set[tuple[str, str]]:
    """Returns the set of (header, function) pairs the manifest covers,
    reporting malformed lines and targets without a _fuzz.cc source."""
    covered: set[tuple[str, str]] = set()
    for lineno, raw in enumerate(manifest_text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 or ":" not in parts[0]:
            errors.append(
                f"{MANIFEST_PATH}:{lineno}: malformed line "
                f"(want '<header>:<Function> <target>'): {raw.strip()}")
            continue
        header, function = parts[0].rsplit(":", 1)
        target = parts[1]
        source = f"{FUZZ_TARGET_DIR}/{target}_fuzz.cc"
        if source not in target_files:
            errors.append(
                f"{MANIFEST_PATH}:{lineno}: target '{target}' has no "
                f"{source} (renamed target without updating the manifest?)")
        covered.add((header, function))
    return covered


def check_decoder_coverage(rel: str, text: str,
                           covered: set[tuple[str, str]],
                           errors: list[str]) -> None:
    """Every Decode*/Deserialize*/Replay* declared in a src/ header must
    be fuzzed (manifest entry) or carry a lint:allow-unfuzzed waiver."""
    if not rel.startswith("src/") or not rel.endswith(".h"):
        return
    lines = text.splitlines()
    code = strip_comments(text)
    for lineno, line in enumerate(code.splitlines(), start=1):
        for match in DECODER_DECL_RE.finditer(line):
            name = match.group(1)
            if (rel, name) in covered:
                continue
            # Waiver comments live on the declaration line or in the
            # contiguous //-block above it; search unstripped source.
            first = lineno - 1
            while first > 0 and lines[first - 1].lstrip().startswith("//"):
                first -= 1
            context = "\n".join(lines[first:lineno])
            if ALLOW_UNFUZZED_RE.search(context):
                continue
            errors.append(
                f"{rel}:{lineno}: untrusted-input entry point '{name}' has "
                f"no fuzz target in {MANIFEST_PATH}; add a fuzz/targets/ "
                f"target and a manifest line '{rel}:{name} <target>', or — "
                f"only if attacker bytes provably cannot reach it — mark "
                f"the declaration '// lint:allow-unfuzzed <reason>'")


def run_checks(files: dict[str, str], manifest_text: str | None,
               target_files: set[str]) -> list[str]:
    """Runs every check over an in-memory file set (rel path -> text)."""
    errors: list[str] = []
    if manifest_text is None:
        errors.append(f"{MANIFEST_PATH}: missing (decoder-coverage check "
                      f"has nothing to verify against)")
        covered: set[tuple[str, str]] = set()
    else:
        covered = parse_manifest(manifest_text, target_files, errors)
    for rel in sorted(files):
        text = files[rel]
        check_no_raw_mutex(rel, text, errors)
        check_guarded_by(rel, text, errors)
        check_test_includes(rel, text, errors)
        check_decoder_coverage(rel, text, covered, errors)
        check_service_layering(rel, text, errors)
    return errors


def self_test() -> int:
    """Seeds one synthetic violation per check and verifies each is
    caught, plus a waiver/clean case per check that must NOT fire."""
    target_files = {"fuzz/targets/wire_thing_fuzz.cc"}
    manifest = (
        "# comment\n"
        "src/net/thing.h:DecodeThing wire_thing\n"
        "src/net/thing.h:DecodeGone wire_gone\n"  # missing _fuzz.cc
        "malformed-no-colon\n")
    files = {
        # Violations: raw mutex, raw include, unguarded mutex, escape
        # include, unfuzzed decoder.
        "src/bad/raw_mutex.cc": "std::mutex m;\n#include <mutex>\n",
        "src/bad/unguarded.h": "class A { util::Mutex mu_; };\n",
        "tests/bad/escape_test.cc": '#include "../src/net/thing.h"\n',
        "src/net/thing.h": (
            "util::Status DecodeThing(std::string_view p);\n"
            "util::Status DecodeNaked(std::string_view p);\n"
            "// lint:allow-unfuzzed input is CRC-checked upstream\n"
            "util::Status DecodeWaived(std::string_view p);\n"
            "// in a comment: DecodeCommented( does not count\n"),
        # Violation: the service layer reaching up into a backend.
        "src/service/upward.cc": (
            '#include "service/backend.h"\n#include "dist/shard_router.h"\n'),
        # Clean: guarded mutex, manifest-covered decoder, a service file
        # that only names a backend in a comment, and a backend module
        # including service/.
        "src/good/guarded.h": (
            "class B { util::Mutex mu_; int x GUARDED_BY(mu_); };\n"),
        "src/service/good_layer.h": (
            '#include "engine/database.h"\n'
            '// #include "net/server.h" is what this file must not do\n'),
        "src/shard/good_backend.h": '#include "service/backend.h"\n',
    }
    errors = run_checks(files, manifest, target_files)
    expected = [
        ("raw std::mutex", "src/bad/raw_mutex.cc:1"),
        ("std locking header", "src/bad/raw_mutex.cc:2"),
        ("no GUARDED_BY", "src/bad/unguarded.h:1"),
        ("bypassing", "tests/bad/escape_test.cc:1"),
        ("'DecodeNaked' has no fuzz target", "src/net/thing.h:2"),
        ("no fuzz/targets/wire_gone_fuzz.cc", "fuzz/targets.manifest:3"),
        ("malformed line", "fuzz/targets.manifest:4"),
        ("sits below every backend", "src/service/upward.cc:2"),
    ]
    failures = 0
    for needle, location in expected:
        if not any(needle in e and location in e for e in errors):
            print(f"self-test: MISSED expected violation {location} "
                  f"({needle!r})")
            failures += 1
    unexpected = [e for e in errors
                  if "DecodeWaived" in e or "DecodeThing'" in e
                  or "DecodeCommented" in e or "src/good/" in e
                  or "good_layer" in e or "good_backend" in e
                  or "src/service/upward.cc:1" in e]
    for e in unexpected:
        print(f"self-test: FALSE POSITIVE: {e}")
        failures += 1
    # A missing manifest must itself be a violation.
    if not any("missing" in e for e in run_checks({}, None, set())):
        print("self-test: MISSED missing-manifest violation")
        failures += 1
    if failures:
        print(f"lint.py --self-test: {failures} failure(s)")
        return 1
    print(f"lint.py --self-test: all checks fire "
          f"({len(expected)} seeded violations caught, waivers honored)")
    return 0


def main() -> int:
    if "--self-test" in sys.argv[1:]:
        return self_test()
    files: dict[str, str] = {}
    for top in SCAN_DIRS:
        root = REPO_ROOT / top
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*")):
            if path.suffix not in CXX_SUFFIXES or not path.is_file():
                continue
            rel = path.relative_to(REPO_ROOT).as_posix()
            files[rel] = path.read_text(encoding="utf-8", errors="replace")
    manifest_path = REPO_ROOT / MANIFEST_PATH
    manifest_text = (manifest_path.read_text(encoding="utf-8")
                     if manifest_path.is_file() else None)
    target_files = {
        p.relative_to(REPO_ROOT).as_posix()
        for p in (REPO_ROOT / FUZZ_TARGET_DIR).glob("*_fuzz.cc")
    } if (REPO_ROOT / FUZZ_TARGET_DIR).is_dir() else set()
    errors = run_checks(files, manifest_text, target_files)
    if errors:
        print(f"lint.py: {len(errors)} violation(s)")
        for error in errors:
            print(error)
        return 1
    print("lint.py: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
