#!/usr/bin/env python3
"""Prints every JSON path where two run reports differ.

Built for plc-run-report/1 files (`plcsim ... --report`), it compares any
two JSON documents, and JSON Lines files line by line. Members are
compared by name, so member order does not count. An array of objects
that all carry a distinct "name" (a report's "metrics") is compared by
name and labels instead of by index, so one added metric reads as one
difference and not as a shifted array. Paths read like
`metrics[des.events_dispatched].value` or
`metrics[medium.tx{outcome=success,station=0}].value`.

    report_diff.py A B [--allow PATH]...

Each difference prints as `PATH: <A value> -> <B value>`, or as
`PATH: only in A` / `only in B`. `--allow PATH` (repeatable) names an
expected difference, which prints with an `allowed` tag; in PATH, `*`
matches any run of characters and everything else is literal. The exit
code is 0 when every difference is allowed, 1 when any is not (or when
the files differ only in formatting), and 2 on a usage or read error.
"""

import argparse
import json
import re
import sys


def load(path):
    """A JSON document, or the list of a JSON Lines file's values."""
    with open(path, "rb") as stream:
        data = stream.read()
    text = data.decode("utf-8")
    try:
        return json.loads(text), data
    except json.JSONDecodeError:
        lines = [line for line in text.splitlines() if line.strip()]
        return [json.loads(line) for line in lines], data


def element_key(item):
    """A named array element's path key: name, then its labels."""
    labels = item.get("labels")
    if isinstance(labels, dict) and labels:
        inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
        return f"{item['name']}{{{inner}}}"
    if isinstance(labels, list) and labels:
        inner = ",".join("=".join(str(x) for x in pair) for pair in labels)
        return f"{item['name']}{{{inner}}}"
    return str(item["name"])


def named_elements(items):
    """{key: element} when every element is a distinctly named object."""
    if not items or not all(
            isinstance(item, dict) and isinstance(item.get("name"), str)
            for item in items):
        return None
    keyed = {}
    for item in items:
        key = element_key(item)
        if key in keyed:
            return None
        keyed[key] = item
    return keyed


def same_scalar(a, b):
    # bool is an int in Python, and 1 and 1.0 print differently in JSON.
    return type(a) is type(b) and a == b


def compare(a, b, path, out):
    if isinstance(a, dict) and isinstance(b, dict):
        for key in a:
            child = f"{path}.{key}" if path else key
            if key in b:
                compare(a[key], b[key], child, out)
            else:
                out.append((child, "only in A"))
        for key in b:
            if key not in a:
                out.append((f"{path}.{key}" if path else key, "only in B"))
        return
    if isinstance(a, list) and isinstance(b, list):
        keyed_a, keyed_b = named_elements(a), named_elements(b)
        if keyed_a is not None and keyed_b is not None:
            for key, item in keyed_a.items():
                if key in keyed_b:
                    compare(item, keyed_b[key], f"{path}[{key}]", out)
                else:
                    out.append((f"{path}[{key}]", "only in A"))
            for key in keyed_b:
                if key not in keyed_a:
                    out.append((f"{path}[{key}]", "only in B"))
            return
        for index in range(max(len(a), len(b))):
            child = f"{path}[{index}]"
            if index >= len(b):
                out.append((child, "only in A"))
            elif index >= len(a):
                out.append((child, "only in B"))
            else:
                compare(a[index], b[index], child, out)
        return
    if not same_scalar(a, b):
        out.append((path or "$", f"{json.dumps(a)} -> {json.dumps(b)}"))


def allow_pattern(path):
    """A regex for an --allow PATH: `*` is the only wildcard."""
    return re.compile(".*".join(re.escape(part) for part in path.split("*")))


def diff(path_a, path_b, allow):
    """Prints the differences; returns the exit code."""
    doc_a, bytes_a = load(path_a)
    doc_b, bytes_b = load(path_b)
    differences = []
    compare(doc_a, doc_b, "", differences)
    patterns = [allow_pattern(path) for path in allow]
    unexpected = 0
    for path, what in differences:
        allowed = any(pattern.fullmatch(path) for pattern in patterns)
        if not allowed:
            unexpected += 1
        print(f"{path}: {what}{'  (allowed)' if allowed else ''}")
    if not differences and bytes_a != bytes_b:
        print("(format): same content, different bytes")
        return 1
    return 1 if unexpected else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Prints every JSON path where two run reports differ.")
    parser.add_argument("a", help="first report (JSON or JSON Lines)")
    parser.add_argument("b", help="second report")
    parser.add_argument("--allow", action="append", default=[],
                        metavar="PATH",
                        help="an expected difference (`*` is a wildcard)")
    args = parser.parse_args(argv)
    try:
        return diff(args.a, args.b, args.allow)
    except (OSError, ValueError) as error:
        print(f"report_diff: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
