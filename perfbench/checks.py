"""Output checks for one benchmark run, independent of the fedqdp code.

The oracles work from the workload config alone. The broadcast bit width
comes from the cosine or static formula written out here, and the message
size from the model's tensor shapes. The exported metrics.csv is parsed
with the csv module, not with fedqdp's reader.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math

# Per-tensor message header: one fp32 scale and a one-byte width tag.
HEADER_BITS = 40


def tensor_sizes(raw: dict) -> list[int]:
    """Element count of each parameter tensor of the configured model."""
    data = raw["data"]
    model = raw.get("model") or {"kind": "logistic"}
    d = model.get("input_dim", data["input_dim"])
    c = model.get("num_classes", data["num_classes"])
    if model["kind"] == "logistic":
        return [c * d, c]
    h = model["hidden_dim"]
    return [h * d, h, c * h, c]


def broadcast_width(schedule: dict, t: int, rounds: int) -> int:
    """Server broadcast width at round t: the static width, or the cosine
    anneal from b_max at round 0 to b_min at the last round, rounded half up."""
    if schedule["mode"] == "static":
        return schedule.get("bits", 32)
    b_max, b_min = schedule.get("b_max", 32), schedule.get("b_min", 8)
    horizon = max(rounds - 1, 1)
    width = b_min + (b_max - b_min) * (1.0 + math.cos(math.pi * t / horizon)) / 2.0
    return max(b_min, min(b_max, math.floor(width + 0.5)))


def parse_metrics_csv(data: bytes) -> list[dict]:
    """Rows of an exported metrics.csv; blank accuracy cells become None."""
    rows = []
    for raw_row in csv.DictReader(io.StringIO(data.decode())):
        row = {}
        for key, cell in raw_row.items():
            if cell == "":
                row[key] = None
            elif key in ("t", "downlink_bits", "uplink_bits"):
                row[key] = int(cell)
            else:
                row[key] = float(cell)
        rows.append(row)
    return rows


def check_rows(rows: list[dict], raw: dict) -> list[str]:
    """Every way the exported rows disagree with the oracles; empty if none."""
    rounds = raw["rounds"]
    per_round = raw["per_round"]
    schedule = raw["schedule"]
    sizes = tensor_sizes(raw)
    params = sum(sizes)
    headers = HEADER_BITS * len(sizes) * per_round
    num_classes = raw["data"]["num_classes"]
    failures = []
    if [r["t"] for r in rows] != list(range(rounds)):
        return [f"expected rounds 0..{rounds - 1}, got {len(rows)} rows"]
    for r in rows:
        t = r["t"]
        b_t = broadcast_width(schedule, t, rounds)
        downlink = per_round * sum(n * b_t + HEADER_BITS for n in sizes)
        if r["downlink_bits"] != downlink:
            failures.append(f"t={t}: downlink_bits {r['downlink_bits']} != oracle {downlink}")
        client_bits, rest = divmod(r["uplink_bits"] - headers, params)
        if rest:
            failures.append(f"t={t}: uplink_bits {r['uplink_bits']} is not 40 bits per tensor "
                            f"plus whole widths over {params} parameters")
            continue
        if abs(client_bits / per_round - r["mean_bits"]) > 5e-7:
            failures.append(f"t={t}: uplink implies mean width {client_bits / per_round}, "
                            f"mean_bits says {r['mean_bits']}")
        if schedule["mode"] != "dynamic" and client_bits != per_round * b_t:
            failures.append(f"t={t}: uplink widths sum to {client_bits}, "
                            f"oracle {per_round} x {b_t}")
    final_acc = rows[-1]["test_acc"] if rows else None
    if final_acc is None or final_acc <= 2.0 / num_classes:
        failures.append(f"final test accuracy {final_acc} is not above twice chance "
                        f"({2.0 / num_classes:.4f})")
    return failures


def total_bits(rows: list[dict]) -> int:
    return sum(r["downlink_bits"] + r["uplink_bits"] for r in rows)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
