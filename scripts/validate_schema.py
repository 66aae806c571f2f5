#!/usr/bin/env python3
"""Validate a JSON document against one artifact of schemas/run.schema.json.

Standard library only (no jsonschema dependency): implements the small
draft-07 subset the schema uses — type, enum, required, properties,
additionalProperties, items, minItems, maxItems, minimum, maximum, and
document-local $ref ("#/definitions/...").

Usage:
    scripts/validate_schema.py schemas/run.schema.json#metrics D/*.metrics.json
    scripts/validate_schema.py --ndjson schemas/run.schema.json#progress D/host/progress.ndjson

`FILE#name` validates against the file's `definitions/name` entry, one
per artifact: metrics, manifest, trace, series, breakdown, vmstat,
heatmap, progress, compare, crashdump, sweep. With --ndjson each input
file is a newline-delimited JSON stream (progress telemetry, sweep
journals) and every non-empty line is validated as one document.

Exits 0 if every document validates, 1 with the first few errors
otherwise, and 2 on a bad command line.
"""

import json
import sys

TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "null": type(None),
    "boolean": bool,
}


def type_ok(value, name):
    if isinstance(value, bool):  # bool is an int subclass in Python
        return name == "boolean"
    return isinstance(value, TYPES[name])


def resolve_ref(ref, root):
    """Resolves a document-local JSON pointer ("#/definitions/x")."""
    node = root
    for part in ref.lstrip("#/").split("/"):
        node = node[part.replace("~1", "/").replace("~0", "~")]
    return node


def validate(value, schema, path, errors, root=None):
    """Appends human-readable problems found at `path` to `errors`."""
    if root is None:
        root = schema
    if "$ref" in schema:
        schema = resolve_ref(schema["$ref"], root)
    t = schema.get("type")
    if t is not None:
        names = t if isinstance(t, list) else [t]
        if not any(type_ok(value, n) for n in names):
            errors.append(f"{path}: expected {'/'.join(names)}, got {type(value).__name__}")
            return
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not one of {schema['enum']}")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if "minimum" in schema and value < schema["minimum"]:
            errors.append(f"{path}: {value} < minimum {schema['minimum']}")
        if "maximum" in schema and value > schema["maximum"]:
            errors.append(f"{path}: {value} > maximum {schema['maximum']}")
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required field {key!r}")
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            if key in props:
                validate(item, props[key], f"{path}.{key}", errors, root)
            elif isinstance(extra, dict):
                validate(item, extra, f"{path}.{key}", errors, root)
            elif extra is False:
                errors.append(f"{path}: unexpected field {key!r}")
    if isinstance(value, list):
        if "minItems" in schema and len(value) < schema["minItems"]:
            errors.append(f"{path}: {len(value)} items < minItems {schema['minItems']}")
        if "maxItems" in schema and len(value) > schema["maxItems"]:
            errors.append(f"{path}: {len(value)} items > maxItems {schema['maxItems']}")
        items = schema.get("items")
        if isinstance(items, dict):
            for i, item in enumerate(value):
                validate(item, items, f"{path}[{i}]", errors, root)


def load_documents(doc_path, ndjson):
    """Yields (label, parse_error_or_None, document) per JSON document."""
    with open(doc_path, encoding="utf-8") as f:
        if not ndjson:
            try:
                yield doc_path, None, json.load(f)
            except json.JSONDecodeError as e:
                yield doc_path, str(e), None
            return
        for i, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                yield f"{doc_path}:{i}", None, json.loads(line)
            except json.JSONDecodeError as e:
                yield f"{doc_path}:{i}", str(e), None


def main(argv):
    args = list(argv[1:])
    ndjson = "--ndjson" in args
    if ndjson:
        args.remove("--ndjson")
    if len(args) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    schema_path, _, name = args[0].partition("#")
    with open(schema_path, encoding="utf-8") as f:
        definitions = json.load(f)["definitions"]
    if name not in definitions:
        print(f"{args[0]}: name an artifact: {schema_path}#<{'|'.join(definitions)}>",
              file=sys.stderr)
        return 2
    schema = {**definitions[name], "definitions": definitions}
    failed = False
    for doc_path in args[1:]:
        path_errors = []
        count = 0
        for label, parse_error, doc in load_documents(doc_path, ndjson):
            count += 1
            if parse_error is not None:
                path_errors.append(f"{label}: not valid JSON: {parse_error}")
                continue
            errors = []
            validate(doc, schema, "$", errors)
            path_errors.extend(f"{label}: {e}" for e in errors)
        if count == 0:
            path_errors.append(f"{doc_path}: empty stream")
        if path_errors:
            failed = True
            print(f"FAIL {doc_path} against {args[0]}:")
            for e in path_errors[:10]:
                print(f"  {e}")
            if len(path_errors) > 10:
                print(f"  ... and {len(path_errors) - 10} more")
        else:
            suffix = f" ({count} documents)" if ndjson else ""
            print(f"ok   {doc_path} matches {args[0]}{suffix}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
