"""Structured pass/fail records and the JSON verification report.

Schema version "1":

    {
      "schema_version": "1",
      "timestamp": "<ISO-8601 UTC>",
      "checks": [
        {"name": str, "kind": "exact"|"numeric", "pass": bool,
         "detail": {<residual|max_discrepancy|bound|...>}, "samples": int},
        ...
      ],
      "summary": {"total": int, "passed": int, "failed": int}
    }

The timestamp is the only non-deterministic field; everything else is
byte-stable for a fixed seed and arguments.
"""

from collections import namedtuple

SCHEMA_VERSION = "1"


class CheckResult(namedtuple("CheckResult", "name kind passed detail samples")):
    """One identity/theorem check: named, kinded ("exact" or "numeric"),
    pass/fail, with a detail dict (a fresh empty one by default)."""

    __slots__ = ()

    def __new__(cls, name, kind, passed, detail=None, samples=1):
        return super().__new__(cls, name, kind, passed, {} if detail is None else detail, samples)

    def to_dict(self):
        return {
            "name": self.name,
            "kind": self.kind,
            "pass": bool(self.passed),
            "detail": dict(self.detail),
            "samples": int(self.samples),
        }


def _numeric_check(name, passed, max_discrepancy, bound, samples=1, **detail):
    """A numeric CheckResult whose detail holds its largest discrepancy, the
    bound it was held to and any further `detail`."""
    return CheckResult(name, "numeric", passed,
                       {"max_discrepancy": max_discrepancy, "bound": bound, **detail}, samples)


def build_report(checks):
    """Assemble the full report dict from a list of CheckResult."""
    from datetime import datetime, timezone  # deferred: most imports never build a report

    entries = [c.to_dict() for c in checks]
    passed = sum(1 for c in entries if c["pass"])
    return {
        "schema_version": SCHEMA_VERSION,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "checks": entries,
        "summary": {
            "total": len(entries),
            "passed": passed,
            "failed": len(entries) - passed,
        },
    }


def report_to_json(report):
    import json  # deferred, as datetime in build_report

    return json.dumps(report, indent=2, sort_keys=True)


def validate_report(report):
    """Raise ValueError if the dict does not conform to schema "1"."""
    if not isinstance(report, dict):
        raise ValueError("report must be an object")
    for key in ("schema_version", "timestamp", "checks", "summary"):
        if key not in report:
            raise ValueError(f"missing key: {key}")
    if report["schema_version"] != SCHEMA_VERSION:
        raise ValueError("unsupported schema_version")
    if not isinstance(report["timestamp"], str):
        raise ValueError("timestamp must be a string")
    checks = report["checks"]
    if not isinstance(checks, list):
        raise ValueError("checks must be a list")
    for c in checks:
        if not isinstance(c, dict):
            raise ValueError("each check must be an object")
        for key in ("name", "kind", "pass", "detail", "samples"):
            if key not in c:
                raise ValueError(f"check missing key: {key}")
        if not isinstance(c["name"], str):
            raise ValueError("name must be a string")
        if c["kind"] not in ("exact", "numeric"):
            raise ValueError(f"bad kind: {c['kind']!r}")
        if not isinstance(c["pass"], bool):
            raise ValueError("pass must be boolean")
        if not isinstance(c["detail"], dict):
            raise ValueError("detail must be an object")
        if type(c["samples"]) is not int or c["samples"] < 0:  # not bool, an int subclass
            raise ValueError("samples must be a non-negative integer")
    summary = report["summary"]
    if not isinstance(summary, dict):
        raise ValueError("summary must be an object")
    n_pass = sum(1 for c in checks if c["pass"])
    counts = {"total": len(checks), "passed": n_pass, "failed": len(checks) - n_pass}
    if any(type(summary.get(k)) is not int or summary[k] != n for k, n in counts.items()):
        raise ValueError("summary counts do not match checks")
    return True
