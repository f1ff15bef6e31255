"""Run manifests and the JSON report envelope emitted by the CLI.

Every report embeds its manifest (command line, seed, budget, version,
timestamps, input digests); rerunning with an identical manifest must
reproduce every result field, so no report is ever built from implicit
entropy. cli.main builds each manifest from the argv it parsed and writes
every envelope; the kinds are those of cli.SUBCOMMANDS and of the schema.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

from . import __version__

SCHEMA_VERSION = 1


@dataclass
class RunManifest:
    command_line: list[str]
    seed: Optional[int] = None
    budget: dict = field(default_factory=dict)
    input_digests: dict = field(default_factory=dict)
    version: str = __version__
    started: float = field(default_factory=time.time)
    finished: Optional[float] = None

    def digest_input(self, name: str, data: bytes) -> None:
        self.input_digests[name] = hashlib.sha256(data).hexdigest()

    def close(self) -> dict:
        self.finished = time.time()
        return asdict(self)


def envelope(kind: str, result: dict, manifest: RunManifest) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "manifest": manifest.close(),
        "result": result,
    }


def write_text(text: str, out_path: Optional[str]) -> None:
    """Write text to stdout for None or "-", else to the file at out_path."""
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def emit(report: dict, out_path: Optional[str]) -> None:
    write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", out_path)
