"""Run manifests: enough configuration and input digests to reproduce any
emitted report byte-for-byte. Reports embed the manifest as comment lines.
"""

from __future__ import annotations

import hashlib
import json

from . import __version__


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def manifest_lines(command: str, parameters: dict, paths=()) -> list[str]:
    """The comment lines of a report: the command, its parameters, the
    SHA-256 of each input keyed by path, and the package version."""
    payload = {
        "command": command,
        "parameters": parameters,
        "inputs": {str(p): file_digest(p) for p in paths},
        "version": __version__,
    }
    return ["manifest: " + json.dumps(payload, sort_keys=True)]
