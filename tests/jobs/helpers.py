"""Test helpers for the jobs layer."""

from pathlib import Path


def truncate_journal_tail(path: Path, drop_bytes: int = 7) -> None:
    """Chop bytes off a journal's end, simulating a crash mid-append."""
    path = Path(path)
    size = path.stat().st_size
    with open(path, "rb+") as handle:
        handle.truncate(max(0, size - drop_bytes))
