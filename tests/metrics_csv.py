"""The metrics CSV read back into records: the round-trip reference for
`orchestrator.write_metrics`, which fedsim itself never reads."""

from dataclasses import fields

from fedsim.orchestrator import CSV_HEADER, MetricsRecord


def read_metrics(path) -> list[MetricsRecord]:
    with open(path, "r", encoding="utf-8") as f:
        header, *rows = f.read().splitlines()
    assert header == CSV_HEADER
    kinds = [field.type for field in fields(MetricsRecord)]
    records = []
    for row in rows:
        parts = row.split(",")
        assert len(parts) == len(kinds), row
        records.append(MetricsRecord(*(kind(part)
                                       for kind, part in zip(kinds, parts))))
    return records
