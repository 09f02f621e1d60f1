#!/usr/bin/env python3
"""Markdown link/anchor and source-path checker (CI docs job).

Scans the repository's Markdown files (top level and docs/;
tests/golden/ is intentionally excluded — generated artifacts may
reference paths relative to their output directory) and fails on:

  * relative Markdown links to files that do not exist;
  * intra-repo anchor links (#heading) that match no heading in the
    target file (GitHub-style slugs; the same rule as slugify() in
    src/report/repro.cc — keep them in sync);
  * backticked or bare references to repository paths
    (src/..., bench/..., tools/..., tests/..., examples/..., docs/...)
    that do not exist (glob patterns are expanded; a pattern matching
    nothing fails);
  * commands in fenced shell blocks (```sh / ```bash) that name
    binaries the build does not produce: `build/<name>` and `./<name>`
    must match a source stem in a directory CMakeLists.txt builds
    programs from (PROGRAM_DIRS: every file there builds to an
    executable of its stem), relative paths
    must exist, and anything else must be a known external command
    (cmake, ctest, python3, ...). This is what keeps quickstart
    commands runnable after a binary is renamed or migrated.

Usage: python3 tools/check_docs.py [repo-root]
Exits non-zero with one line per problem.
"""

import glob
import os
import re
import sys

PATH_PREFIXES = ("src/", "bench/", "tools/", "tests/", "examples/",
                 "docs/")
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")
# Path-like tokens: a known prefix followed by path characters.
PATH_RE = re.compile(
    r"(?<![\w/.])((?:src|bench|tools|tests|examples|docs)/"
    r"[A-Za-z0-9_./*-]*)")


# Any ``` line toggles fence state; the info string may carry extra
# words (```sh title=x), so capture everything and take the first
# token as the language.
FENCE_RE = re.compile(r"^```(.*)$")
SHELL_LANGS = {"sh", "bash", "shell", "console"}
# External commands docs may legitimately invoke.
KNOWN_COMMANDS = {
    "cmake", "ctest", "python3", "python", "cd", "ls", "cat", "head",
    "tail", "diff", "cmp", "printf", "echo", "exit", "true", "false",
    "test", "export", "git", "mkdir", "rm", "cp", "mv", "grep", "sed",
    "sort", "tee",
}
ENV_ASSIGN_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*=")
# Directories whose *.cc files each build to an executable of their
# stem: the program loop in CMakeLists.txt, plus tests/ (built when
# GTest is available).
PROGRAM_DIRS = ("examples", "tools", "tests")


def built_binary_stems(root):
    """Executable names the build produces: one per source stem in
    PROGRAM_DIRS."""
    stems = set()
    for d in PROGRAM_DIRS:
        for path in glob.glob(os.path.join(root, d, "*.cc")):
            stems.add(os.path.splitext(os.path.basename(path))[0])
    return stems


def iter_shell_commands(text):
    """Yield every command string inside ```sh/```bash fences,
    continuation lines joined, comments stripped, &&/||/;/| split."""
    lang = None
    pending = ""
    for line in text.splitlines():
        fence = FENCE_RE.match(line.strip())
        if fence:
            if lang is None:  # opening fence: first info-string token
                info = fence.group(1).strip().split()
                lang = info[0].lower() if info else ""
            else:  # closing fence
                lang = None
            pending = ""
            continue
        if lang not in SHELL_LANGS:
            continue
        line = pending + line
        pending = ""
        if line.rstrip().endswith("\\"):
            pending = line.rstrip()[:-1] + " "
            continue
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        for part in re.split(r"&&|\|\||;|\|", line):
            if part.strip():
                yield part.strip()


def check_shell_commands(root, rel, text, problems):
    stems = built_binary_stems(root)
    for command in iter_shell_commands(text):
        tokens = command.split()
        while tokens and ENV_ASSIGN_RE.match(tokens[0]):
            tokens.pop(0)
        if not tokens:
            continue
        cmd = tokens[0]
        if cmd in KNOWN_COMMANDS:
            continue
        name = None
        if cmd.startswith("build/"):
            name = cmd[len("build/"):]
        elif cmd.startswith("./"):
            name = cmd[len("./"):]
        if name is not None:
            if name not in stems:
                problems.append(
                    f"{rel}: shell block names unbuilt binary: {cmd}")
        elif "/" in cmd:
            if not os.path.exists(os.path.join(root, cmd)):
                problems.append(
                    f"{rel}: shell block names missing path: {cmd}")
        else:
            problems.append(
                f"{rel}: shell block uses unknown command: {cmd}")


def github_slug(heading):
    """GitHub-style anchor; mirror of slugify() in src/report/repro.cc."""
    out = []
    for ch in heading:
        if ch.isalnum():
            out.append(ch.lower())
        elif ch == " ":
            out.append("-")
        elif ch in "-_":
            out.append(ch)
    return "".join(out)


def md_files(root):
    for entry in sorted(os.listdir(root)):
        if entry.endswith(".md"):
            yield os.path.join(root, entry)
    docs = os.path.join(root, "docs")
    if os.path.isdir(docs):
        for dirpath, _dirnames, filenames in os.walk(docs):
            for name in sorted(filenames):
                if name.endswith(".md"):
                    yield os.path.join(dirpath, name)


def headings_of(path):
    slugs = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            m = HEADING_RE.match(line.rstrip())
            if not m:
                continue
            # Strip inline code/emphasis markers before slugging,
            # as GitHub does.
            text = re.sub(r"[`*]", "", m.group(1)).strip()
            slug = github_slug(text)
            # Repeated headings get -1, -2, ... suffixes.
            n = slugs.get(slug, -1) + 1
            slugs[slug] = n
            if n:
                slugs[f"{slug}-{n}"] = 0
    return set(slugs)


def check_file(root, path, problems):
    rel = os.path.relpath(path, root)
    text = open(path, encoding="utf-8").read()
    base = os.path.dirname(path)

    check_shell_commands(root, rel, text, problems)

    for m in LINK_RE.finditer(text):
        target = m.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        target, _, anchor = target.partition("#")
        if target:
            dest = os.path.normpath(os.path.join(base, target))
            if not os.path.exists(dest):
                problems.append(f"{rel}: dead link: {m.group(1)}")
                continue
        else:
            dest = path
        if anchor and dest.endswith(".md"):
            if anchor not in headings_of(dest):
                problems.append(f"{rel}: dead anchor: #{anchor}")

    seen = set()
    for m in PATH_RE.finditer(text):
        token = m.group(1).rstrip(".,:;)")
        if token in seen:
            continue
        seen.add(token)
        if not token.startswith(PATH_PREFIXES):
            continue
        if any(tok in token for tok in "*?["):
            if not glob.glob(os.path.join(root, token)):
                problems.append(
                    f"{rel}: path pattern matches nothing: {token}")
            continue
        full = os.path.join(root, token)
        if os.path.exists(full):
            continue
        # Extensionless stems are fine when something carries the
        # stem: `examples/h2p_report` (the built binary) names
        # examples/h2p_report.cc, and `src/sim/spec_core.{hh,cc}`
        # tokenizes to the stem `src/sim/spec_core`.
        if not os.path.splitext(token)[1] and glob.glob(full + ".*"):
            continue
        problems.append(f"{rel}: dead path reference: {token}")


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")
    problems = []
    count = 0
    for path in md_files(root):
        count += 1
        check_file(root, path, problems)
    for p in problems:
        print(p)
    print(f"check_docs: {count} files, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
