"""Metrics persistence: fixed-schema CSV rows plus a JSON run manifest."""

from __future__ import annotations

import json
import time

from .errors import FormatError
from .trainer import MetricsRecord

METRICS_SCHEMA_VERSION = 1
METRICS_HEADER = "epoch,iter,split,loss,accuracy,lr,wall_ms"


class MetricsWriter:
    """Appends MetricsRecord rows to a CSV with the fixed header."""

    def __init__(self, path):
        self.path = path
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(METRICS_HEADER + "\n")

    def write(self, rec: MetricsRecord) -> None:
        rec.validate()
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(
                f"{rec.epoch},{rec.iteration},{rec.split},{rec.loss!r},"
                f"{rec.accuracy!r},{rec.lr!r},{rec.wall_ms}\n"
            )


def read_metrics(path) -> list[MetricsRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != METRICS_HEADER:
        raise FormatError(f"{path}: unexpected metrics header")
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        try:
            epoch, iteration, split, loss, acc, lr, wall = line.split(",")
            out.append(MetricsRecord(int(epoch), int(iteration), split, float(loss),
                                     float(acc), float(lr), int(wall)))
        except ValueError as exc:
            raise FormatError(f"{path}: line {lineno}: {exc}") from None
    return out


def dump_curve(metrics_path, out_path) -> int:
    """Project (epoch, iter, split, loss) out of a metrics CSV; returns rows."""
    records = read_metrics(metrics_path)
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("epoch,iter,split,loss\n")
        for rec in records:
            fh.write(f"{rec.epoch},{rec.iteration},{rec.split},{rec.loss!r}\n")
    return len(records)


def write_manifest(path, config_hash: str, seed: int, extra: dict | None = None) -> None:
    from . import __version__

    manifest = {
        "config_hash": config_hash,
        "seed": seed,
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "version": __version__,
        "metrics_schema_version": METRICS_SCHEMA_VERSION,
    }
    if extra:
        manifest.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
