"""The hardware log buffer protocol: fill, full signal, disable, drain."""

from __future__ import annotations

from oohsim.pml import INDEX_DISABLED, LogResult, PmlBuffer


def main() -> None:
    # 1) a fresh buffer starts at index 511 and accepts exactly 512 entries
    buf = PmlBuffer(index=511)
    for gpa in range(512):
        assert buf.log(gpa) == LogResult.LOGGED
    print(f"after 512 logs: index={buf.index} full={buf.full}")
    assert buf.index == -1

    # 2) the 513th attempt is refused and raises the full signal; the
    #    refused entry is NOT stored — the handler must replay it
    outcome = buf.log(512)
    print(f"513th attempt -> {outcome} (entries kept: {len(buf.entries)})")
    assert outcome == LogResult.FULL and len(buf.entries) == 512

    # 3) the full-event handler drains (copy out, re-arm at 511)
    drained = buf.drain()
    print(f"drain -> {len(drained)} entries, index back to {buf.index}")
    assert buf.index == 511 and buf.log(512) == LogResult.LOGGED

    # 4) index 512 means "disabled": attempts leave no trace at all
    buf.reset(INDEX_DISABLED)
    assert buf.log(99) == LogResult.DISABLED
    assert len(buf.entries) == 0 and buf.index == INDEX_DISABLED
    print("disabled index suppresses logging entirely")

    print("device semantics demo ok")


if __name__ == "__main__":
    main()
