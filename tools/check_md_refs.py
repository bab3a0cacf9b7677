#!/usr/bin/env python3
"""Fails when a source file or doc names a Markdown file that does not exist.

Scans every text file under src/, tests/, bench/, examples/, tools/ and
docs/, plus README.md, for names ending in `.md`. A name resolves when the
file exists at that path from the repository root or next to the file that
names it (so `../README.md` in docs/ and a bare `README.md` beside one both
count). URLs are skipped. Prints each dangling name with its file and line
and exits 1 if there is any.

Usage: python3 tools/check_md_refs.py [repo_root]   (default: the parent of
this script's directory)
"""
import os
import re
import sys

SCANNED_DIRS = ("src", "tests", "bench", "examples", "tools", "docs")
SCANNED_FILES = ("README.md",)
MD_NAME = re.compile(r"[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b")


def scanned_files(root):
    for name in SCANNED_FILES:
        path = os.path.join(root, name)
        if os.path.isfile(path):
            yield path
    for top in SCANNED_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                yield os.path.join(dirpath, name)


def resolves(root, naming_file, name):
    candidates = (os.path.join(root, name),
                  os.path.join(os.path.dirname(naming_file), name))
    return any(os.path.isfile(c) for c in candidates)


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else
                           os.path.join(os.path.dirname(__file__), ".."))
    dangling = []
    for path in scanned_files(root):
        try:
            with open(path, encoding="utf-8") as f:
                lines = f.readlines()
        except UnicodeDecodeError:
            continue  # binary fixtures name nothing
        for number, line in enumerate(lines, 1):
            for match in MD_NAME.finditer(line):
                words = line[:match.end()].split()
                if words and "://" in words[-1]:
                    continue  # the tail of a URL
                if not resolves(root, path, match.group()):
                    dangling.append((os.path.relpath(path, root), number,
                                     match.group()))
    for path, number, name in dangling:
        print(f"{path}:{number}: names {name}, which does not exist")
    if dangling:
        print(f"{len(dangling)} dangling Markdown reference(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
