"""Check records and report serialization (JSON / aligned text / CSV)."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from .errors import DomainEvalError

PASS, FAIL, INFO = "pass", "fail", "info"


@dataclass
class CheckRecord:
    name: str
    status: str                  # "pass" | "fail" | "info"
    value: float = None
    bound: float = None
    stderr: float = None
    detail: str = ""


@dataclass
class Report:
    command: str
    config_hash: str
    records: list = field(default_factory=list)
    wall_time: float = 0.0
    engine_version: str = ""

    def add(self, name, status, value=None, bound=None, stderr=None, detail=""):
        self.records.append(CheckRecord(name, status,
                                        None if value is None else float(value),
                                        None if bound is None else float(bound),
                                        None if stderr is None else float(stderr),
                                        detail))

    def check(self, name, value, bound, stderr=None, detail=""):
        """Record value ≤ bound as pass/fail and return the outcome. A value
        or bound that is not finite raises DomainEvalError naming the row."""
        if not (math.isfinite(value) and math.isfinite(bound)):
            raise DomainEvalError(f"non-finite check {name}: value {float(value)!r}, "
                                  f"bound {float(bound)!r}")
        ok = value <= bound
        self.add(name, PASS if ok else FAIL, value, bound, stderr, detail)
        return ok

    @property
    def failed(self) -> bool:
        return any(r.status == FAIL for r in self.records)

    # --- serialization ---------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({
            "command": self.command,
            "config_hash": self.config_hash,
            "engine_version": self.engine_version,
            "wall_time": self.wall_time,
            "records": [vars(r) for r in self.records],
        }, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Report":
        data = json.loads(text)
        rep = cls(command=data["command"], config_hash=data["config_hash"],
                  wall_time=data["wall_time"], engine_version=data["engine_version"])
        rep.records = [CheckRecord(**r) for r in data["records"]]
        return rep

    def to_text(self) -> str:
        rows = [("check", "status", "value", "bound", "stderr", "detail")]
        for r in self.records:
            rows.append((r.name, r.status,
                         "" if r.value is None else f"{r.value:.6e}",
                         "" if r.bound is None else f"{r.bound:.6e}",
                         "" if r.stderr is None else f"{r.stderr:.2e}",
                         r.detail))
        widths = [max(len(row[c]) for row in rows) for c in range(6)]
        lines = [f"# {self.command}   config {self.config_hash}   "
                 f"engine {self.engine_version}   {self.wall_time:.2f}s"]
        for row in rows:
            lines.append("  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip())
        lines.append("RESULT: " + ("FAIL" if self.failed else "PASS"))
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["name,status,value,bound,stderr,detail"]
        for r in self.records:
            detail = '"%s"' % r.detail.replace('"', '""') if r.detail else ""
            lines.append(",".join([
                r.name, r.status,
                "" if r.value is None else repr(r.value),
                "" if r.bound is None else repr(r.bound),
                "" if r.stderr is None else repr(r.stderr),
                detail]))
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "text":
            return self.to_text()
        if fmt == "csv":
            return self.to_csv()
        raise ValueError(f"unknown report format {fmt!r}")


def config_hash(canonical_json: str) -> str:
    return hashlib.sha256(canonical_json.encode()).hexdigest()[:16]
