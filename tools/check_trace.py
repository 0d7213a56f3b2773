#!/usr/bin/env python3
"""Validates a qcont Chrome trace_event JSON file.

Usage: check_trace.py [--catalog DESIGN.md] TRACE.json [TRACE2.json ...]

Checks, per file:
  - parses as JSON, top level has "traceEvents" (list) and
    "displayTimeUnit" == "ms";
  - every event is a complete-phase ("ph": "X") record with string "name"
    and "cat", numeric "ts" and "dur" >= 0, integer "pid" == 1 and
    "tid" >= 0;
  - span names use the "<component>/<operation>" taxonomy of DESIGN.md
    §12 (one '/', non-empty halves);
  - "args", when present, maps string keys to integers;
  - with --catalog, every span name and every arg key appears in the span
    taxonomy table of the given DESIGN.md (§12), where a name written
    with a <placeholder> segment (e.g. cli/<mode>) matches any segment;
  - events on the same tid nest properly: spans overlap only by full
    containment, never partially (Perfetto renders partial overlap as
    corrupt tracks).

Exit code 0 when every file passes, 1 otherwise. Non-trace problems
(missing file, unreadable) also exit 1, with the reason on stderr.
"""

import json
import re
import sys

REQUIRED_TOP = ("traceEvents", "displayTimeUnit")


def fail(path, msg):
    print(f"check_trace: {path}: {msg}", file=sys.stderr)
    return False


def check_event(path, i, ev):
    where = f"traceEvents[{i}]"
    if not isinstance(ev, dict):
        return fail(path, f"{where}: not an object")
    for key in ("name", "cat"):
        if not isinstance(ev.get(key), str) or not ev[key]:
            return fail(path, f"{where}: missing/empty string '{key}'")
    if ev.get("ph") != "X":
        return fail(path, f"{where}: ph is {ev.get('ph')!r}, want 'X'")
    for key in ("ts", "dur"):
        v = ev.get(key)
        if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 0:
            return fail(path, f"{where}: '{key}' is {v!r}, want number >= 0")
    if ev.get("pid") != 1:
        return fail(path, f"{where}: pid is {ev.get('pid')!r}, want 1")
    tid = ev.get("tid")
    if not isinstance(tid, int) or isinstance(tid, bool) or tid < 0:
        return fail(path, f"{where}: tid is {tid!r}, want int >= 0")
    name = ev["name"]
    parts = name.split("/")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        return fail(path, f"{where}: name {name!r} not '<component>/<op>'")
    args = ev.get("args")
    if args is not None:
        if not isinstance(args, dict):
            return fail(path, f"{where}: args is not an object")
        for k, v in args.items():
            if not isinstance(v, int) or isinstance(v, bool):
                return fail(path, f"{where}: args[{k!r}] is {v!r}, want int")
    return True


def check_nesting(path, events):
    """Spans on one tid must nest: no partial overlap."""
    by_tid = {}
    for ev in events:
        by_tid.setdefault(ev["tid"], []).append((ev["ts"], ev["ts"] + ev["dur"], ev["name"]))
    ok = True
    for tid, spans in by_tid.items():
        spans.sort()
        stack = []
        for start, end, name in spans:
            while stack and stack[-1][1] <= start:
                stack.pop()
            if stack and end > stack[-1][1]:
                ok = fail(
                    path,
                    f"tid {tid}: span {name!r} [{start}, {end}) partially "
                    f"overlaps {stack[-1][2]!r} [{stack[-1][0]}, {stack[-1][1]})",
                )
                continue
            stack.append((start, end, name))
    return ok


def check_file(path, catalog=None):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        return fail(path, f"cannot read: {e}")
    except json.JSONDecodeError as e:
        return fail(path, f"invalid JSON: {e}")
    if not isinstance(doc, dict):
        return fail(path, "top level is not an object")
    for key in REQUIRED_TOP:
        if key not in doc:
            return fail(path, f"missing top-level key '{key}'")
    if doc["displayTimeUnit"] != "ms":
        return fail(path, f"displayTimeUnit is {doc['displayTimeUnit']!r}, want 'ms'")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        return fail(path, "traceEvents is not a list")
    ok = all(check_event(path, i, ev) for i, ev in enumerate(events))
    if ok:
        ok = check_nesting(path, events)
    if ok and catalog is not None:
        ok = check_catalog(path, events, catalog)
    if ok:
        print(f"check_trace: {path}: OK ({len(events)} events)")
    return ok


def load_catalog(path):
    """Parses the span taxonomy table of DESIGN.md §12.

    Returns a list of (name regex, allowed arg keys) pairs, one per span
    name listed in a table row. A row may list several spans; they share
    the row's args. Raises ValueError when no table is found.
    """
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    section = re.search(r"^## 12\..*?(?=^## )", text, re.S | re.M)
    if section is None:
        raise ValueError(f"{path}: no '## 12.' section")
    rows = []
    in_table = False
    for line in section.group(0).splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("| span |"):
            in_table = True
            continue
        if not in_table:
            continue
        if not line.startswith("|"):
            break
        if set(cells[0]) <= set("-: "):
            continue  # the |---| separator row
        if len(cells) != 4:
            raise ValueError(f"{path}: span row without 4 cells: {line!r}")
        args = set(re.findall(r"`([^`]+)`", cells[3]))
        for name in re.findall(r"`([^`]+)`", cells[0]):
            parts = re.split(r"<[^>]+>", name)
            pattern = "[^/]+".join(re.escape(part) for part in parts)
            rows.append((re.compile(f"^{pattern}$"), args))
    if not rows:
        raise ValueError(f"{path}: no span taxonomy table in §12")
    return rows


def check_catalog(path, events, catalog):
    """Every span name must match a catalogue row, every arg key be listed."""
    ok = True
    for i, ev in enumerate(events):
        allowed = None
        for pattern, args in catalog:
            if pattern.match(ev["name"]):
                allowed = args
                break
        if allowed is None:
            ok = fail(path, f"traceEvents[{i}]: span {ev['name']!r} "
                      "is not in the catalog")
            continue
        for key in ev.get("args") or {}:
            if key not in allowed:
                ok = fail(path, f"traceEvents[{i}]: span {ev['name']!r} "
                          f"arg {key!r} is not in the catalog")
    return ok


def main(argv):
    args = argv[1:]
    catalog = None
    if args and args[0].startswith("--catalog"):
        if args[0] == "--catalog":
            if len(args) < 2:
                print(__doc__.strip(), file=sys.stderr)
                return 1
            catalog_path, args = args[1], args[2:]
        else:
            catalog_path, args = args[0].split("=", 1)[1], args[1:]
        try:
            catalog = load_catalog(catalog_path)
        except (OSError, ValueError) as e:
            print(f"check_trace: {e}", file=sys.stderr)
            return 1
    if not args:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    return 0 if all([check_file(p, catalog) for p in args]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
