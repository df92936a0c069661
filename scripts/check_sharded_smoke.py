#!/usr/bin/env python
"""CI assertion over the sharded-serve smoke round-trip.

Usage::

    python scripts/check_sharded_smoke.py SHARDED_OUT PLAIN_OUT

Both files hold one ``repro serve`` session's stdout (JSON lines) over
the same request script: single pairs from more than one source, a
BATCH, a TOPK, and HEALTH last.  Fails (exit 1, with a message) unless

* both sessions printed a ready banner plus the same number of
  responses, the last one the HEALTH snapshot;
* the sharded banner advertises the shard topology (``shards`` list,
  every shard running and not quarantined);
* every pair ``value``, BATCH ``values`` and TOPK ``results`` line is
  **bit-identical** between the sharded and unsharded sessions (the
  tentpole scatter-gather guarantee), the pair lines cover at least two
  sources, and nothing is degraded;
* the sharded HEALTH snapshot still shows a live runtime with every
  shard healthy after the traffic.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: The answer field of each response kind, in the order they are checked.
_ANSWER_FIELDS = ("value", "values", "results")


def _fail(message: str) -> "NoReturn":  # noqa: F821 - py3.11 typing-lite
    print(f"check_sharded_smoke: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def _load(path: str) -> list[dict]:
    lines = [
        json.loads(line)
        for line in Path(path).read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    if len(lines) < 3:
        _fail(f"{path}: expected a banner, responses and HEALTH, got "
              f"{len(lines)} lines")
    return lines


def _answer_field(response: dict, line: int) -> str:
    for field in _ANSWER_FIELDS:
        if field in response:
            return field
    _fail(f"response {line} carries no answer: {response}")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        _fail("usage: check_sharded_smoke.py SHARDED_OUT PLAIN_OUT")
    sharded, plain = _load(argv[0]), _load(argv[1])
    if len(sharded) != len(plain):
        _fail(f"sharded session printed {len(sharded)} lines, unsharded "
              f"{len(plain)}")

    banner = sharded[0]
    if not banner.get("ready"):
        _fail("sharded session never became ready")
    shards = banner.get("shards")
    if not shards:
        _fail("sharded banner carries no shard topology")
    for shard in shards:
        if not shard["running"] or shard["quarantined"]:
            _fail(f"shard {shard['shard']} unhealthy at startup: {shard}")
    if not plain[0].get("ready"):
        _fail("unsharded session never became ready")

    counts = dict.fromkeys(_ANSWER_FIELDS, 0)
    sources = set()
    for line, (got, want) in enumerate(zip(sharded[1:-1], plain[1:-1]), 1):
        field = _answer_field(got, line)
        counts[field] += 1
        if field == "value":
            sources.add(got["u"])
        if got[field] != want.get(field):
            _fail(f"response {line} drifted: {field} {got[field]} != "
                  f"{want.get(field)}")
        if got.get("degraded"):
            _fail(f"sharded response {line} degraded: {got}")
    missing = [field for field, count in counts.items() if not count]
    if missing:
        _fail(f"no response answered with {missing}")
    if len(sources) < 2:
        _fail(f"pair lines cover {len(sources)} source(s); expected >= 2")

    health = sharded[-1]
    if health.get("runtime_closed") is not False:
        _fail(f"HEALTH snapshot taken after the drain: {health}")
    for shard in health.get("shards", []):
        if not shard["running"] or shard["quarantined"]:
            _fail(f"shard {shard['shard']} unhealthy after traffic: {shard}")

    print(
        "check_sharded_smoke: OK — "
        f"{len(shards)} shards, {counts['value']} pairs from "
        f"{len(sources)} sources, BATCH and TOPK bit-identical to unsharded"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
