#!/usr/bin/env python3
"""Fail on broken intra-repo markdown links, dead anchors, untagged
fenced code blocks, and documented names the code does not have.

Three checks over every tracked .md file:

 1. [text](target) links whose target is a relative path (external
    http(s)/mailto links are skipped) must resolve to an existing file or
    directory.
 2. Anchor fragments — both same-file `#section` links and cross-file
    `docs/api.md#section` links — must match a heading in the target
    file, using GitHub's heading-to-anchor slug rules.
 3. Every fenced code block must carry a language tag (```cpp, ```sh,
    ```text, ...) so renderers highlight instead of guessing.

Three checks tie the docs to the code:

 4. Every backticked counter name in the `CampaignCacheStats` table of
    docs/api.md must be a field of `struct CampaignCacheStats` in
    src/inject/campaign.h.
 5. Every backticked `Type::member` (a trailing `(...)` or ` = ...` is
    ignored) must name a struct, class or enum declared under src/, and
    the member must appear inside that type's braces. Top-level notes
    (every .md at the repo root but README.md: change records, roadmap,
    paper notes) are exempt: they name what the code was or will be.
 6. Every backticked CamelCase identifier in README.md and docs/*.md
    (`ConfigReport`, the `CheckConfigBatch` in `CheckConfigBatch(...)`)
    must occur as a word in a file under src/, tests/, bench/,
    perfbench/, scripts/ or examples/, so the docs cannot keep naming a
    type or function after it is deleted.

Run from anywhere:

    python3 scripts/check_docs.py
"""
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIP_DIRS = {".git", "build", "build-release", "build-tsan", "build-docs"}

# [text](target) — target is everything up to the first ')', so paths with
# spaces are validated too; an optional "title" suffix is stripped below.
# (Targets containing a literal ')' can't be matched without a real parser
# and are the one known blind spot.)
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)]+)\)")
TITLE_RE = re.compile(r"\s+\"[^\"]*\"$")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$")
# CommonMark caps fence indentation at 3 spaces; 4+ is an indented code
# block whose ``` content is literal text, not a delimiter.
FENCE_RE = re.compile(r"^ {0,3}(```+|~~~+)\s*(\S*)")
INLINE_LINK_IN_HEADING_RE = re.compile(r"\[([^\]]*)\]\([^)]*\)")
BACKTICKED_RE = re.compile(r"`([^`]+)`")
# A data member declaration: `size_t name = 0;` / `type name;`.
FIELD_RE = re.compile(r"^\s*[\w:<>]+\s+(\w+)\s*(?:=[^;]*)?;")
# `Type::member`, possibly followed by a call's arguments or a value.
QUALIFIED_RE = re.compile(r"^([A-Z]\w*)::(\w+)\b")
# An UpperCamelCase word: `ConfigReport`, `CheckConfigBatch`, `RtValue`.
CAMEL_RE = re.compile(r"\b[A-Z][a-z0-9]+[A-Z]\w*\b")
WORD_RE = re.compile(r"\w+")
CODE_DIRS = ("src", "tests", "bench", "perfbench", "scripts", "examples")
# The head of a type definition, opening its line: `struct A {`,
# `class A final : B {`, `enum class A : int {`, `struct Outer::A {`.
# Group 1 is the name.
TYPE_HEAD_RE = re.compile(
    r"^[ \t]*(?:template\s*<[^>]*>\s*)?(?:struct|class|enum(?:\s+class)?)\s+(?:\w+::)*(\w+)\b"
    r"[^;{}()\n]*\{", re.M)


def markdown_files():
    for dirpath, dirnames, filenames in os.walk(REPO_ROOT):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS and not d.startswith("build")]
        for name in filenames:
            if name.endswith(".md"):
                yield os.path.join(dirpath, name)


def github_slug(heading, used):
    """GitHub's heading-to-anchor rule: strip formatting, lowercase, drop
    everything but word characters/spaces/hyphens, spaces become hyphens,
    duplicates get -1/-2/... suffixes."""
    text = INLINE_LINK_IN_HEADING_RE.sub(r"\1", heading)
    text = text.replace("`", "").replace("*", "").strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    slug = text.replace(" ", "-")
    if slug in used:
        count = used[slug]
        used[slug] += 1
        slug = f"{slug}-{count}"
    used[slug] = 1
    return slug


def scan_file(path, problems):
    """One pass over `path`: returns (anchor set, prose lines), appends
    untagged-fence findings to `problems`. Fenced code blocks contribute
    neither headings (shell comments are not sections) nor prose lines —
    the link pass must not validate example links inside them."""
    anchors = set()
    prose = []
    used = {}
    fence_marker = None
    rel = os.path.relpath(path, REPO_ROOT)
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            fence = FENCE_RE.match(line)
            if fence_marker is None and fence:
                fence_marker = fence.group(1)
                if not fence.group(2):
                    problems.append(
                        f"{rel}:{lineno}: fenced code block missing a language tag"
                    )
                continue
            if fence_marker is not None:
                # CommonMark: the closing fence uses the same character and
                # is at least as long as the opening fence — a ``` inside a
                # ```` block is content, not a terminator.
                if (fence and fence.group(1)[0] == fence_marker[0]
                        and len(fence.group(1)) >= len(fence_marker) and not fence.group(2)):
                    fence_marker = None
                continue
            heading = HEADING_RE.match(line)
            if heading:
                anchors.add(github_slug(heading.group(2), used))
            prose.append((lineno, line))
    if fence_marker is not None:
        problems.append(f"{rel}: unclosed fenced code block")
    return anchors, prose


def struct_fields(header, struct):
    """Data member names of `struct <struct> { ... };` in `header`."""
    with open(os.path.join(REPO_ROOT, header), encoding="utf-8") as handle:
        text = handle.read()
    body = re.search(r"^struct " + struct + r" \{(.*?)^\};", text, re.M | re.S)
    if body is None:
        return None
    return {m.group(1) for m in map(FIELD_RE.match, body.group(1).splitlines()) if m}


def check_cache_stats_table(problems):
    """Check 4: the api.md CampaignCacheStats table documents only real fields."""
    doc = "docs/api.md"
    fields = struct_fields("src/inject/campaign.h", "CampaignCacheStats")
    if fields is None:
        problems.append("src/inject/campaign.h: struct CampaignCacheStats not found")
        return
    with open(os.path.join(REPO_ROOT, doc), encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    # The table is the "| Counter" one introduced by prose naming the struct.
    table = next((i for i, line in enumerate(lines) if line.startswith("| Counter")
                  and any("`CampaignCacheStats`" in prev for prev in lines[max(0, i - 4):i])),
                 None)
    if table is None:
        problems.append(f"{doc}: CampaignCacheStats counter table not found")
        return
    for lineno in range(table + 2, len(lines)):  # Skip header + separator.
        if not lines[lineno].startswith("|"):
            break
        first_cell = lines[lineno].split("|")[1]
        for name in BACKTICKED_RE.findall(first_cell):
            if name not in fields:
                problems.append(
                    f"{doc}:{lineno + 1}: `{name}` is not a field of "
                    "CampaignCacheStats (src/inject/campaign.h)"
                )


def type_bodies():
    """Name -> list of brace-delimited bodies of every struct, class and
    enum definition under src/ (comments and strings are not stripped; a
    brace inside one would only shorten a body, never lengthen it)."""
    bodies = {}
    for dirpath, _, filenames in os.walk(os.path.join(REPO_ROOT, "src")):
        for name in filenames:
            if not name.endswith((".h", ".cc")):
                continue
            with open(os.path.join(dirpath, name), encoding="utf-8") as handle:
                text = handle.read()
            for head in TYPE_HEAD_RE.finditer(text):
                depth, end = 1, head.end()
                while depth and end < len(text):
                    depth += {"{": 1, "}": -1}.get(text[end], 0)
                    end += 1
                bodies.setdefault(head.group(1), []).append(text[head.end():end - 1])
    return bodies


def check_qualified_members(scanned, problems):
    """Check 5: every documented `Type::member` names a member of a src/ type."""
    bodies = type_bodies()
    for path, (_, prose) in scanned.items():
        rel = os.path.relpath(path, REPO_ROOT)
        if os.sep not in rel and rel != "README.md":
            continue
        for lineno, line in prose:
            for text in BACKTICKED_RE.findall(line):
                match = QUALIFIED_RE.match(text)
                if match is None:
                    continue
                type_name, member = match.groups()
                if type_name not in bodies:
                    problems.append(f"{rel}:{lineno}: `{text}`: no struct, class or enum "
                                    f"{type_name} under src/")
                elif not any(re.search(r"\b" + member + r"\b", body)
                             for body in bodies[type_name]):
                    problems.append(f"{rel}:{lineno}: `{text}`: {type_name} has no member "
                                    f"{member}")


def code_words():
    """Every word of every file under CODE_DIRS."""
    words = set()
    for top in CODE_DIRS:
        for dirpath, _, filenames in os.walk(os.path.join(REPO_ROOT, top)):
            for name in filenames:
                with open(os.path.join(dirpath, name), encoding="utf-8",
                          errors="ignore") as handle:
                    words.update(WORD_RE.findall(handle.read()))
    return words


def check_camel_case_names(scanned, problems):
    """Check 6: every backticked CamelCase name in README.md and docs/*.md
    occurs in the code."""
    words = code_words()
    for path, (_, prose) in scanned.items():
        rel = os.path.relpath(path, REPO_ROOT)
        if rel != "README.md" and os.path.dirname(rel) != "docs":
            continue
        for lineno, line in prose:
            for text in BACKTICKED_RE.findall(line):
                for name in CAMEL_RE.findall(text):
                    if name not in words:
                        problems.append(f"{rel}:{lineno}: `{name}` occurs nowhere under "
                                        f"{', '.join(d + '/' for d in CODE_DIRS)}")


def main():
    problems = []
    files = sorted(markdown_files())
    scanned = {path: scan_file(path, problems) for path in files}
    anchors = {path: result[0] for path, result in scanned.items()}

    for path in files:
        base = os.path.dirname(path)
        rel = os.path.relpath(path, REPO_ROOT)
        for lineno, line in scanned[path][1]:
            for match in LINK_RE.finditer(line):
                target = TITLE_RE.sub("", match.group(1)).strip()
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                target_path, _, fragment = target.partition("#")
                if target_path:
                    resolved = os.path.normpath(os.path.join(base, target_path))
                    if not os.path.exists(resolved):
                        problems.append(f"{rel}:{lineno}: broken link -> {match.group(1)}")
                        continue
                else:
                    resolved = path  # Pure-anchor link into this file.
                if fragment and resolved in anchors:
                    if fragment not in anchors[resolved]:
                        problems.append(
                            f"{rel}:{lineno}: dead anchor -> {match.group(1)} "
                            f"(no heading slugs to #{fragment})"
                        )
    check_cache_stats_table(problems)
    check_qualified_members(scanned, problems)
    check_camel_case_names(scanned, problems)

    if problems:
        print("check_docs: documentation problems:", file=sys.stderr)
        for entry in problems:
            print(f"  {entry}", file=sys.stderr)
        return 1
    print(f"check_docs: {len(files)} markdown files OK "
          "(links, anchors, code fences, counters, Type::member, CamelCase names)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
