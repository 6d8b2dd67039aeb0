#!/usr/bin/env python3
"""Census of the library crates' public surface.

Lists every `pub fn | struct | enum | const | type | trait | static`
definition under `crates/<crate>/src` (methods included, `crates/shim`
excluded) whose name appears as a whole word nowhere outside its own
crate. The outside callers are the other crates, the crate's own
integration tests (`crates/<crate>/tests`), the facade (`src/`),
`tests/`, `examples/` and `benchmark/src/`.

A listed name stays `pub` only when narrowing it makes rustc report a
private type in a public signature, field or caller, or when it is in
EXCEPTIONS below. The last line is the total count of public
definitions, which CI holds under a ceiling.

Run from the repository root: `python3 scripts/public_names.py`.
"""

import pathlib
import re

# Public with no caller outside their crate yet, on purpose.
EXCEPTIONS = {
    # The FMG plan-file pair: only their round-trip test calls them
    # today; serving a tuned FMG family (ROADMAP 2(i)) is their caller.
    ("core", "save_fmg_plan"),
    ("core", "load_fmg_plan"),
    # `TelemetrySnapshot::to_json`: README's JSON sink for a snapshot.
    # No code outside `obs` calls it; the name is shared with the plan
    # files' `to_json`, so the census does not list it either way.
    ("obs", "to_json"),
}

DEFINITION = re.compile(
    r"^\s*pub\s+(?:(?:const|unsafe|async|extern\s+\"C\")\s+)*"
    r"(?:fn|struct|enum|const|type|trait|static)\s+(?:mut\s+)?([A-Za-z_][A-Za-z0-9_]*)"
)
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
CALLER_ROOTS = ["src", "tests", "examples", "benchmark/src"]


def rust_files(root):
    return sorted(p for p in pathlib.Path(root).rglob("*.rs") if p.is_file())


def main():
    crates = sorted(
        p.name for p in pathlib.Path("crates").iterdir() if (p / "src").is_dir() and p.name != "shim"
    )
    words = {}  # file -> set of whole words in it
    for path in [f for c in crates for f in rust_files(f"crates/{c}")] + [
        f for root in CALLER_ROOTS for f in rust_files(root)
    ]:
        words[path] = set(WORD.findall(path.read_text()))

    total = 0
    unused = 0
    per_crate = []
    for crate in crates:
        own_src = pathlib.Path(f"crates/{crate}/src")
        outside = set()
        for path, found in words.items():
            if own_src not in path.parents:
                outside |= found
        count = 0
        for path in rust_files(own_src):
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                m = DEFINITION.match(line)
                if not m:
                    continue
                count += 1
                name = m.group(1)
                if name not in outside:
                    unused += 1
                    note = "  (exception)" if (crate, name) in EXCEPTIONS else ""
                    print(f"{path}:{lineno}: {name}{note}")
        per_crate.append(f"{crate} {count}")
        total += count
    print("per crate: " + ", ".join(per_crate))
    print(f"with no outside caller: {unused}")
    print(f"public definitions: {total}")


if __name__ == "__main__":
    main()
