"""Incremental checkpointing: images, chains, timing, and missed pages."""

from __future__ import annotations

import hashlib
import types

import pytest

from oohsim.checkpoint import (
    BrokenChain,
    CheckpointImage,
    CheckpointSession,
    CorruptImage,
    NoBaseline,
    ZERO_PAGE,
    checkpoint_time_model,
    load_image,
    missed_pages_experiment,
    restore,
    restore_verify,
    save_image,
)
from oohsim.workloads import MB, PAGE, TraceWorkload, random_trace

GB = 1000 * MB


# ------------------------------------------------------------------ images


def test_incremental_image_requires_parent():
    with pytest.raises(NoBaseline):
        CheckpointImage(sequence_no=1, mode="incremental", pages={})


def test_full_image_rejects_parent():
    with pytest.raises(ValueError):
        CheckpointImage(sequence_no=1, mode="full", pages={}, parent=0)


def test_restore_replays_overlay_and_prunes_to_final_shape():
    a, b, c = 0x1000, 0x2000, 0x3000
    one = b"\x01".ljust(PAGE, b"\x00")
    two = b"\x02".ljust(PAGE, b"\x00")
    full = CheckpointImage(0, "full", {a: one, b: one, c: one}, frozenset({a, b, c}))
    inc = CheckpointImage(
        1, "incremental", {b: two}, mapped=frozenset({a, b}), parent=0
    )
    state = restore([full, inc])
    assert state == {a: one, b: two}  # c was dropped by the process


def test_restore_rejects_bad_chains():
    full = CheckpointImage(0, "full", {})
    inc = CheckpointImage(2, "incremental", {}, parent=1)  # skips image 1
    with pytest.raises(BrokenChain):
        restore([])
    with pytest.raises(BrokenChain):
        restore([CheckpointImage(1, "incremental", {}, parent=0)])
    with pytest.raises(BrokenChain):
        restore([full, inc])


def test_image_pages_must_be_inside_the_mapped_set():
    with pytest.raises(ValueError):
        CheckpointImage(0, "full", {0x1000: ZERO_PAGE}, mapped=frozenset())


def test_verify_treats_absent_pages_as_zero():
    full = CheckpointImage(0, "full", {0x1000: ZERO_PAGE}, frozenset({0x1000}))
    res = restore_verify([full], {})
    assert res.consistent
    assert res.divergent == frozenset()


# ----------------------------------------------------------- serialization


def test_image_round_trips_through_disk(tmp_path):
    img = CheckpointImage(
        3,
        "incremental",
        {0x5000: b"\xabhello".ljust(PAGE, b"\x00")},
        mapped=frozenset({0x5000, 0x9000}),
        parent=2,
    )
    save_image(img, tmp_path / "img")
    back = load_image(tmp_path / "img")
    assert back == img


def test_load_detects_corruption(tmp_path):
    img = CheckpointImage(
        0, "full", {0x1000: b"\x01".ljust(PAGE, b"\x00")}, frozenset({0x1000})
    )
    save_image(img, tmp_path / "img")
    victim = next((tmp_path / "img").glob("page-*.bin"))
    victim.write_bytes(b"\xff" * PAGE)
    with pytest.raises(CorruptImage):
        load_image(tmp_path / "img")


# ----------------------------------------------------------------- timing


@pytest.mark.parametrize(
    "technique,size_mb,published_ms",
    [
        ("proc", 1, 107.17),
        ("proc", 10, 132.45),
        ("proc", 50, 280.35),
        ("proc", 100, 399.26),
        ("proc", 250, 577.97),
        ("proc", 500, 889.47),
        ("proc", 1000, 1627.0),
        ("spml", 1, 112.81),
        ("spml", 10, 148.66),
        ("spml", 50, 327.42),
        ("spml", 100, 756.09),
        ("spml", 250, 2123.0),
        ("spml", 500, 5520.0),
        ("spml", 1000, 16326.0),
        ("epml", 1, 105.33),
        ("epml", 10, 119.36),
        ("epml", 50, 237.74),
        ("epml", 100, 327.96),
        ("epml", 250, 405.24),
        ("epml", 500, 607.00),
        ("epml", 1000, 1011.0),
    ],
)
def test_dump_times_track_reference_measurements(technique, size_mb, published_ms):
    timing = checkpoint_time_model(technique, size_mb * MB)
    assert published_ms / 2 <= timing.total_ms <= published_ms * 2


def test_dump_time_ratios_at_one_gb():
    proc = checkpoint_time_model("proc", GB).total_ms
    spml = checkpoint_time_model("spml", GB).total_ms
    epml = checkpoint_time_model("epml", GB).total_ms
    assert proc / epml >= 1.4  # the extended tracker wins by at least 40%
    assert spml / proc >= 5.0  # the shadowed tracker loses by at least 5x


def test_dirty_count_scales_the_dump():
    small = checkpoint_time_model("epml", GB, dirty_pages=100)
    large = checkpoint_time_model("epml", GB, dirty_pages=10_000)
    assert large.dump_us - small.dump_us == pytest.approx(9_900 * 4.0)


def test_unknown_technique_rejected():
    with pytest.raises(ValueError, match="technique"):
        checkpoint_time_model("vanilla", GB)


@pytest.mark.parametrize(
    ("args", "kwargs", "field"),
    [
        (("epml", GB), {"dirty_pages": -100_000}, "dirty_pages"),
        (("proc", -4096), {}, "memory_bytes"),
        (("proc", 0), {}, "memory_bytes"),
    ],
)
def test_time_model_rejects_bad_numbers(args, kwargs, field):
    with pytest.raises(ValueError, match=field):
        checkpoint_time_model(*args, **kwargs)


# ---------------------------------------------------------------- sessions


@pytest.mark.parametrize("technique", ["proc", "uffd", "spml", "epml"])
def test_full_dump_equals_memory(technique):
    sess = CheckpointSession(technique, 16 * PAGE)
    for gva in sess.gvas[:5]:
        sess.write(gva)
    img = sess.checkpoint("full")
    assert img.mode == "full"
    assert set(img.pages) == sess.mapped
    res = restore_verify([img], sess.oracle())
    assert res.consistent


@pytest.mark.parametrize("technique", ["proc", "uffd", "spml", "epml"])
def test_incremental_dump_contains_exactly_the_dirty_pages(technique):
    sess = CheckpointSession(technique, 16 * PAGE)
    sess.checkpoint("full")
    touched = sess.gvas[3:7]
    for gva in touched:
        sess.write(gva)
    inc = sess.checkpoint("incremental")
    assert set(inc.pages) == set(touched)
    res = restore_verify(sess.images, sess.oracle())
    assert res.consistent


def test_incremental_without_baseline_raises():
    sess = CheckpointSession("epml", 4 * PAGE)
    with pytest.raises(NoBaseline):
        sess.checkpoint("incremental")


def test_import_binds_the_module_not_a_function():
    import oohsim.checkpoint as c

    assert isinstance(c, types.ModuleType)
    assert c.CheckpointSession is CheckpointSession


@pytest.mark.parametrize("technique", ["proc", "uffd", "spml", "epml"])
def test_dropped_pages_do_not_survive_restore(technique):
    # dump pages with content, then retire them: the final image's mapped
    # set prunes them, so the stale full-dump copies never come back
    sess = CheckpointSession(technique, 16 * PAGE)
    for gva in sess.gvas[:4]:
        sess.write(gva)
    sess.checkpoint("full")
    for gva in sess.gvas[:4]:
        sess.write(gva)
        sess.unmap(gva)
    inc = sess.checkpoint("incremental")
    assert set(inc.pages) == set()  # nothing dirty was still mapped
    res = restore_verify(sess.images, sess.oracle())
    assert res.consistent


@pytest.mark.parametrize("technique", ["proc", "uffd", "epml"])
def test_address_reuse_churn_stays_consistent(technique):
    # retire written pages and remap the same addresses fresh: trackers
    # that log virtual addresses still know those names changed, dump the
    # remapped pages' current (zero) content, and restore stays consistent
    sess = CheckpointSession(technique, 16 * PAGE)
    for gva in sess.gvas[:4]:
        sess.write(gva)
    sess.checkpoint("full")
    for gva in sess.gvas[:4]:
        sess.write(gva)
        sess.unmap(gva)
        sess.map(gva)
    sess.checkpoint("incremental")
    res = restore_verify(sess.images, sess.oracle())
    assert res.consistent


def test_shadowed_tracker_restores_stale_pages_after_address_reuse():
    # same scenario under the shadowed tracker: the retired frames cannot
    # be reverse-mapped, the rewrites are lost, and the earlier full-dump
    # copies survive at addresses that are still mapped — stale content
    sess = CheckpointSession("spml", 16 * PAGE)
    for gva in sess.gvas[:4]:
        sess.write(gva)
    sess.checkpoint("full")
    for gva in sess.gvas[:4]:
        sess.write(gva)
        sess.unmap(gva)
        sess.map(gva)
    sess.checkpoint("incremental")
    assert len(sess.lost) == 4
    res = restore_verify(sess.images, sess.oracle())
    assert not res.consistent
    assert res.divergent == frozenset(sess.gvas[:4])


def test_epml_fuzzed_sessions_always_restore_consistently():
    for seed in range(8):
        trace = random_trace(seed, max_pages=48, n_ops=100)
        sess = CheckpointSession("epml", trace.memory_bytes)
        ops = trace.ops
        third = len(ops) // 3
        sess.checkpoint("full")
        sess.run_ops(ops[:third])
        sess.checkpoint("incremental")
        sess.run_ops(ops[third : 2 * third])
        sess.checkpoint("incremental")
        sess.run_ops(ops[2 * third :])
        sess.checkpoint("incremental")
        res = restore_verify(sess.images, sess.oracle())
        assert res.consistent, seed


def test_session_records_timings():
    sess = CheckpointSession("epml", 16 * PAGE)
    sess.write(sess.gvas[0])
    sess.checkpoint("full")
    assert len(sess.timings) == 1
    assert sess.timings[0].total_ms > 100  # dominated by the base dump cost


# Four dumps of one plain and one remap-heavy trace under every technique.
# Each image is (dumped pages, content digest, mapped pages), page sets
# written as page-number runs; then the lost and inaccurate entries as
# page-number pairs.  The "moves" sessions restore stale (ROADMAP open item
# 1): their output is pinned here, not judged.
_PINNED_SESSIONS = {
    ('plain', 'proc'): (
        (
            ('1-5 7-27 33-34', '70d713a200d6942f', '1-5 7-27 33-34'),
            ('1-3 5 9 12-13 15 19 22 24 26 33', '794e143b7326fa32', '1-3 5 7 9-20 22-26 33-38'),
            ('1-3 9 11-12 14-17 20 23 33 37-41', '1a55f85b84443e80', '1-3 5 7 9-20 22-23 26 33 35-41'),
            ('1-2 7 9 15-16 18-19 22-23 26 33 38 40 43-44', '8d051f6dac349083', '1-3 5 7 9-11 13-20 22-23 26 33 36-40 42-44'),
        ),
        (),
        (),
    ),
    ('plain', 'uffd'): (
        (
            ('1-5 7-27 33-34', '70d713a200d6942f', '1-5 7-27 33-34'),
            ('1-3 5 9 12-13 15 19 22 24 26 33', '794e143b7326fa32', '1-3 5 7 9-20 22-26 33-38'),
            ('1-3 9 11-12 14-17 20 23 33 37-41', '1a55f85b84443e80', '1-3 5 7 9-20 22-23 26 33 35-41'),
            ('1-2 7 9 15-16 18-19 22-23 26 33 38 40 43-44', '8d051f6dac349083', '1-3 5 7 9-11 13-20 22-23 26 33 36-40 42-44'),
        ),
        (),
        (),
    ),
    ('plain', 'spml'): (
        (
            ('1-5 7-27 33-34', '70d713a200d6942f', '1-5 7-27 33-34'),
            ('1-3 5 9 12-13 15 19 22 24 26 33', '794e143b7326fa32', '1-3 5 7 9-20 22-26 33-38'),
            ('1-3 9 11-12 14-17 20 23 33 37-41', '1a55f85b84443e80', '1-3 5 7 9-20 22-23 26 33 35-41'),
            ('1-2 7 9 15-16 18-19 22-23 26 33 38 40 43-44', '8d051f6dac349083', '1-3 5 7 9-11 13-20 22-23 26 33 36-40 42-44'),
        ),
        ((276, 21),),
        (),
    ),
    ('plain', 'epml'): (
        (
            ('1-5 7-27 33-34', '70d713a200d6942f', '1-5 7-27 33-34'),
            ('1-3 5 9 12-13 15 19 22 24 26 33', '794e143b7326fa32', '1-3 5 7 9-20 22-26 33-38'),
            ('1-3 9 11-12 14-17 20 23 33 37-41', '1a55f85b84443e80', '1-3 5 7 9-20 22-23 26 33 35-41'),
            ('1-2 7 9 15-16 18-19 22-23 26 33 38 40 43-44', '8d051f6dac349083', '1-3 5 7 9-11 13-20 22-23 26 33 36-40 42-44'),
        ),
        (),
        (),
    ),
    ('moves', 'proc'): (
        (
            ('2-5 8-10 12-15 19-22 24-26 33-34 4097-4101', 'bf84b9b2ef83e8d8', '2-5 8-10 12-15 19-22 24-26 33-34 4097-4101'),
            ('10 14-15 20 22 26 36 38 4099-4102 4104-4105 4107', '1efbf64eb167960b', '2 4-5 8-10 13-15 20 22 24 26 33-38 40 4099-4107'),
            ('4-5 14 20 22 26 33 35-36 40 4100 4104 4106-4107 4110 4112-4113', 'c55ff479ba2ef6e7', '4-5 10 14-15 20 22 26 33-37 40-41 4100-4102 4104-4113'),
            ('5 10 15 40 42 44 4100-4102 4106-4107 4110 4112-4114 4117', '50873aca848b72c4', '5 10 15 33 36-37 40 42-44 4100-4102 4104-4114 4116-4117 4119'),
        ),
        (),
        (),
    ),
    ('moves', 'uffd'): (
        (
            ('2-5 8-10 12-15 19-22 24-26 33-34 4097-4101', 'bf84b9b2ef83e8d8', '2-5 8-10 12-15 19-22 24-26 33-34 4097-4101'),
            ('10 14-15 20 22 26 36 38 4099-4101 4104', 'fff184f75d9c58f3', '2 4-5 8-10 13-15 20 22 24 26 33-38 40 4099-4107'),
            ('4-5 14 20 22 26 33 35-36 40 4100 4104 4106-4107 4110', 'e62c1672a0712b4f', '4-5 10 14-15 20 22 26 33-37 40-41 4100-4102 4104-4113'),
            ('5 10 15 40 42 44 4100-4102 4106-4107 4110 4112-4114 4117', '50873aca848b72c4', '5 10 15 33 36-37 40 42-44 4100-4102 4104-4114 4116-4117 4119'),
        ),
        (),
        (),
    ),
    ('moves', 'spml'): (
        (
            ('2-5 8-10 12-15 19-22 24-26 33-34 4097-4101', 'bf84b9b2ef83e8d8', '2-5 8-10 12-15 19-22 24-26 33-34 4097-4101'),
            ('10 14-15 20 22 26 36 38 4099-4102 4104-4105 4107', '1efbf64eb167960b', '2 4-5 8-10 13-15 20 22 24 26 33-38 40 4099-4107'),
            ('4-5 14 20 22 26 33 35-36 40 4100 4104 4106-4107 4110 4112-4113', 'c55ff479ba2ef6e7', '4-5 10 14-15 20 22 26 33-37 40-41 4100-4102 4104-4113'),
            ('5 10 15 40 42 44 4100-4102 4106-4107 4110 4112-4114 4117', '50873aca848b72c4', '5 10 15 33 36-37 40 42-44 4100-4102 4104-4114 4116-4117 4119'),
        ),
        ((262, 7), (267, 12), (279, 24), (259, 4)),
        ((4099, 23), (4098, 17), (4100, 1), (4102, 4097), (4107, 3), (4105, 25), (4113, 8), (4112, 2), (4110, 4099)),
    ),
    ('moves', 'epml'): (
        (
            ('2-5 8-10 12-15 19-22 24-26 33-34 4097-4101', 'bf84b9b2ef83e8d8', '2-5 8-10 12-15 19-22 24-26 33-34 4097-4101'),
            ('10 14-15 20 22 26 36 38 4101 4104', '7765164ef6056e8a', '2 4-5 8-10 13-15 20 22 24 26 33-38 40 4099-4107'),
            ('4-5 14 20 22 26 33 35-36 40 4104 4106', 'adc2a473e5389286', '4-5 10 14-15 20 22 26 33-37 40-41 4100-4102 4104-4113'),
            ('5 10 15 40 42 44 4101 4106 4114 4117', '52c02dde0e2f31f1', '5 10 15 33 36-37 40 42-44 4100-4102 4104-4114 4116-4117 4119'),
        ),
        (),
        (),
    ),
}


def _with_moves(trace, every=5):
    """``trace`` with a remap after every ``every``-th op; later ops follow the move."""
    mapped = trace.initial_gvas()
    name: dict[int, int] = {}
    fresh = 0x100_0000
    ops = []
    for i, op in enumerate(trace.ops, start=1):
        op = (op[0],) + tuple(name.get(g, g) for g in op[1:])
        ops.append(op)
        if op[0] == "map":
            mapped.append(op[1])
        elif op[0] == "unmap":
            mapped.remove(op[1])
        if i % every == 0:
            j = i % len(mapped)
            old = mapped[j]
            ops.append(("remap", old, fresh))
            mapped[j] = fresh
            for k, v in name.items():
                if v == old:
                    name[k] = fresh
            name[old] = fresh
            fresh += PAGE
    return TraceWorkload(ops=ops, name=f"{trace.name}-moves", initial_pages=trace.initial_pages)


def _page_runs(gvas) -> str:
    runs: list[list[int]] = []
    for n in sorted(g // PAGE for g in gvas):
        if runs and runs[-1][1] == n - 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return " ".join(f"{a}-{b}" if a != b else f"{a}" for a, b in runs)


def _content_digest(image) -> str:
    h = hashlib.sha256()
    for gva in sorted(image.pages):
        h.update(gva.to_bytes(8, "little") + image.pages[gva])
    return h.hexdigest()[:16]


@pytest.mark.parametrize("kind, technique", sorted(_PINNED_SESSIONS))
def test_sessions_pinned_per_image(kind, technique):
    trace = random_trace(2, max_pages=32, n_ops=120)
    if kind == "moves":
        trace = _with_moves(random_trace(3, max_pages=32, n_ops=120))
    sess = CheckpointSession(technique, trace.memory_bytes)
    step = -(-len(trace.ops) // 4)
    for k in range(4):
        sess.run_ops(trace.ops[k * step : (k + 1) * step])
        sess.checkpoint("full" if k == 0 else "incremental")
    images, lost, inaccurate = _PINNED_SESSIONS[kind, technique]
    got = tuple(
        (_page_runs(img.pages), _content_digest(img), _page_runs(img.mapped))
        for img in sess.images
    )
    assert got == images
    assert tuple((a // PAGE, b // PAGE) for a, b in sess.lost) == lost
    assert tuple((a // PAGE, b // PAGE) for a, b in sess.inaccurate) == inaccurate


# ------------------------------------------------------------ missed pages


def test_missed_proportion_sweep():
    points = missed_pages_experiment()
    props = [p.proportion for p in points]
    assert all(a >= b for a, b in zip(props, props[1:]))  # monotone
    assert props[0] / props[-1] >= 10
    assert props[0] == pytest.approx(360 / 512)
    assert props[-1] == pytest.approx(360 / 16384)


def test_missed_proportion_zero_for_extended_tracker():
    points = missed_pages_experiment((512, 2048), technique="epml")
    assert all(p.proportion == 0.0 for p in points)


def test_missed_proportion_zero_without_churn():
    points = missed_pages_experiment((512,), churn_events=0)
    assert points[0].proportion == 0.0
