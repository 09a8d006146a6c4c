"""Trial synthesis and SPC stage 2 against the per-trial kernels they replaced.

``reference_kernels`` holds those kernels verbatim: a SeedSequence built
from the list [seed, *labels], one real and one imaginary draw per signal
segment, one noise block and one receive sum per segment, and one stage-2
resolve per trial. The package's word-array generator must reach the same
PCG64 state, and so must the vectorized seeding against it; its one-draw
signal blocks must equal the per-segment draws, a trial's receive block
must equal the per-segment blocks bit for bit, and a stacked stage 2 must
give each trial's bits and warnings as a per-trial resolve does, at any
stack size.
"""

import warnings
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from pencil_doa import ArrayConfig, HadConfig, PencilConfig, SourceSet, build_pc_codebook
from pencil_doa import harness
from pencil_doa.arrays import (
    RngSpec,
    child_states,
    generate_signals,
    seed_states,
    state_generator,
    steering_matrix,
)
from pencil_doa.estimators import disambiguation_combiners, spc_resolve
from pencil_doa.harness import ExperimentConfig, _receiver, _SweepPoint

SEEDS = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**80),
    st.integers(-2**80, -1),
)
LABELS = st.one_of(
    st.integers(-2**40, -1),
    st.integers(2**32, 2**70),
    st.integers(0, 2**32 - 1),
    st.text(max_size=8),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(0, 2**32 - 1).map(np.uint32),
)


class TestWordSeedingMatchesCrumbList:
    @settings(max_examples=200, deadline=None)
    @given(seed=SEEDS, labels=st.lists(LABELS, max_size=5))
    def test_generator_state_matches(self, seed, labels):
        got = RngSpec(seed, tuple(labels)).generator()
        want = ref.CrumbRngSpec(seed, tuple(labels)).generator()
        assert got.bit_generator.state == want.bit_generator.state
        npt.assert_array_equal(got.standard_normal(5), want.standard_normal(5))


def assert_same_stream(got, want):
    assert got.bit_generator.state == want.bit_generator.state
    npt.assert_array_equal(got.standard_normal(5), want.standard_normal(5))


class TestVectorizedSeedingMatchesGenerator:
    """``seed_states`` rows seed the streams that ``RngSpec.generator`` seeds."""

    @settings(max_examples=300, deadline=None)
    @given(seed=SEEDS, labels=st.lists(LABELS, max_size=6),
           rows=st.lists(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=9),
                         min_size=1, max_size=5))
    def test_one_spec(self, seed, labels, rows):
        # 1 to 8 words: below the pool of four, the pool is zero-padded
        spec = RngSpec(seed, tuple(labels))
        assert 1 <= spec.words().size <= 8
        assert_same_stream(state_generator(seed_states(spec.words())), spec.generator())
        # rows of 1 to 9 words, zero-padded to one width, each hashed at its own count
        counts = [len(row) for row in rows]
        words = np.zeros((len(rows), max(counts)), dtype=np.uint32)
        for padded, row in zip(words, rows):
            padded[:len(row)] = row
        for state, row, count in zip(seed_states(words, counts), words, counts):
            npt.assert_array_equal(
                state, np.random.SeedSequence(row[:count]).generate_state(4, np.uint64))

    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, head=st.lists(LABELS, max_size=3),
           indices=st.lists(st.integers(0, 2**40), min_size=1, max_size=5),
           width=st.integers(0, 2), data=st.data())
    def test_child_rows_at_once(self, seed, head, indices, width, data):
        labels = data.draw(st.lists(st.tuples(*[LABELS] * width), min_size=1, max_size=4))
        spec = RngSpec(seed, tuple(head))
        states = child_states(spec, indices, labels)
        assert states.shape == (len(indices), len(labels), 4)
        for i, row in zip(indices, states):
            for label, state in zip(labels, row):
                assert_same_stream(state_generator(state),
                                   spec.child(i, *label).generator())

    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, head=st.lists(LABELS, max_size=3),
           indices=st.lists(st.integers(0, 2**40), max_size=4),
           labels=st.lists(st.lists(LABELS, max_size=3).map(tuple), min_size=1,
                           max_size=6))
    def test_child_states_of_mixed_lengths(self, seed, head, indices, labels):
        # labels of several lengths, interleaved, keep their order in the rows
        spec = RngSpec(seed, tuple(head))
        states = child_states(spec, indices, labels)
        assert states.shape == (len(indices), len(labels), 4)
        for i, row in zip(indices, states):
            for label, state in zip(labels, row):
                npt.assert_array_equal(state, seed_states(spec.child(i, *label).words()))
                assert_same_stream(state_generator(state),
                                   spec.child(i, *label).generator())

    def test_rows_that_are_not_contiguous(self):
        specs = [RngSpec(7, (i, "noise")) for i in range(3)]
        states = np.asfortranarray(seed_states(np.stack([s.words() for s in specs])))
        for spec, state in zip(specs, states):
            assert_same_stream(state_generator(state), spec.generator())

    @pytest.mark.parametrize("n_words,dtype", [(8, np.uint32), (4, np.uint32),
                                               (2, np.uint64), (8, np.uint64)])
    def test_seed_state_gives_only_pcg64_words(self, n_words, dtype):
        words = RngSpec(5, ("signal",)).words()
        state = state_generator(seed_states(words)).bit_generator.seed_seq
        assert isinstance(state, np.random.bit_generator.ISeedSequence)
        with pytest.raises(ValueError, match="4 uint64 words"):
            state.generate_state(n_words, dtype)
        npt.assert_array_equal(state.generate_state(4, np.uint64),
                               np.random.SeedSequence(words).generate_state(4, np.uint64))


@st.composite
def receive_cases(draw):
    m, k = draw(st.integers(2, 16)), draw(st.integers(1, 12))
    r, segments = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    powers = draw(st.lists(st.floats(1e-3, 1e3), min_size=r, max_size=r))
    sources = SourceSet(tuple(np.linspace(-50.0, 40.0, r)), tuple(powers))
    return (m, k, sources, segments, draw(st.booleans()), draw(st.booleans()),
            draw(st.integers(0, 2**64 - 1)), draw(st.integers(0, 300)))


class TestReceiveBlockMatchesPerSegment:
    """One receive block per trial gives the per-segment blocks bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(receive_cases())
    def test_block_bits(self, case):
        m, k, sources, segments, periodic, noiseless, seed, trial = case
        steer = steering_matrix(ArrayConfig(m), sources)
        spec = RngSpec(seed, (3,))
        noise_labels = [("noise", i) for i in range(segments)]
        signal = state_generator(child_states(spec, [trial], [("signal",)])[0, 0])
        noise = None if noiseless else [
            state_generator(state) for state in child_states(spec, [trial], noise_labels)[0]]
        block = np.empty((segments, m, k), dtype=complex)
        harness._receive(block, steer, sources, signal, noise, periodic)
        point = SimpleNamespace(noiseless=noiseless, cfg=SimpleNamespace(m=m))
        want = ref.per_segment_receive(point, steer, sources, k, spec.child(trial, "signal"),
                                       [spec.child(trial, *label) for label in noise_labels],
                                       periodic)
        npt.assert_array_equal(block.view(np.uint64), np.stack(want).view(np.uint64))


class TestSweepPointStreams:
    """A sweep point's streams are the specs' generators, trial by trial."""

    @pytest.mark.parametrize("changes", [
        {"scenario": "fd_mpm"},
        {"scenario": "pmpm_fc", "random_theta": True, "sweep": "snapshots",
         "grid": (64,)},
        {"scenario": "spc_mpm"},
    ])
    def test_chunks_of_trials(self, changes, monkeypatch):
        cfg = ExperimentConfig(**{"m": 16, "l": 4, "angles_deg": (10.0,),
                                  "snr_db": (10.0,), "snapshots": 64, "trials": 7,
                                  "seed": 2**40 + 3, **changes})
        point = _SweepPoint(cfg, _receiver(cfg), cfg.grid[0])
        # three trials' streams per chunk
        monkeypatch.setattr(harness, "STACK_BYTES", 3 * 32 * len(point.labels))
        chunks = []
        seed_chunk = harness.child_states
        monkeypatch.setattr(harness, "child_states", lambda spec, indices, labels: (
            chunks.append(list(indices)) or seed_chunk(spec, indices, labels)))
        for sweep in (0, 4):
            trials = list(point._streams(sweep))
            assert len(trials) == cfg.trials
            for trial, stream in enumerate(trials):
                for label in point.labels:
                    spec = RngSpec(cfg.seed).child(sweep, trial, *label)
                    assert_same_stream(stream(*label), spec.generator())
        assert chunks == [[0, 1, 2], [3, 4, 5], [6]] * 2

    def test_only_drawable_streams_are_seeded(self):
        cfg = ExperimentConfig(scenario="spc_mpm", m=16, l=4, angles_deg=(10.0,),
                               snr_db=None, powers=None, sweep="snr", trials=2)
        noiseless = _SweepPoint(cfg, _receiver(cfg), float("inf"))
        assert noiseless.labels == [("signal",), ("signal2",)]
        with pytest.raises(KeyError):
            next(noiseless._streams(0))("noise2")
        cfg = ExperimentConfig(scenario="pmpm_fc", m=16, l=4, random_theta=True,
                               sweep="snapshots", grid=(64,), snr_db=(10.0,))
        point = _SweepPoint(cfg, _receiver(cfg), 64)
        assert point.labels == [("theta",), ("signal",)] + [("noise", i) for i in range(4)]


class TestSignalBlockMatchesPerSegmentDraws:
    @settings(max_examples=60, deadline=None)
    @given(r=st.integers(1, 3), k=st.integers(1, 40), segments=st.integers(1, 9),
           periodic=st.booleans(), seed=st.integers(0, 2**64 - 1),
           powers=st.lists(st.floats(1e-3, 1e3), min_size=3, max_size=3))
    def test_blocks_match(self, r, k, segments, periodic, seed, powers):
        sources = SourceSet(tuple(np.linspace(-40.0, 40.0, r)), tuple(powers[:r]))
        rng = RngSpec(seed).child(3, "signal")
        got = generate_signals(sources, k, segments, periodic, rng)
        want = ref.per_segment_generate_signals(sources, k, segments, periodic, rng)
        assert len(got) == len(want) == segments
        if segments == 1:  # one segment: the periodic and one-draw forms agree
            npt.assert_array_equal(
                generate_signals(sources, k, 1, not periodic, rng), want[0][None])
        for g, w in zip(got, want):
            assert g.shape == w.shape == (r, k)
            npt.assert_array_equal(g, w)


# base angles whose candidates sit within rounding of +-pi on an even m_rf
NEAR_PI = st.sampled_from([0.0, 1e-13, -1e-13, 5e-17, -5e-17])


@st.composite
def stage2_trials(draw):
    m, l = draw(st.sampled_from([(8, 1), (16, 8), (16, 4), (32, 8), (64, 8)]))
    r = draw(st.integers(1, 3))
    trials = draw(st.integers(8, 16))
    codebook = build_pc_codebook(HadConfig("pc", m, l))
    g = disambiguation_combiners(codebook, r)
    k2 = draw(st.integers(g, 3 * g + 2))
    seed = draw(st.integers(0, 2**32 - 1))
    gen = np.random.default_rng(seed)
    base = np.sort(np.stack([
        [draw(st.one_of(NEAR_PI, st.floats(-89.0, 89.0))) for _ in range(r)]
        for _ in range(trials)]), axis=1)
    steer = np.exp(1j * np.outer(np.arange(m), gen.uniform(-np.pi, np.pi, trials)))
    amplitude = np.array([draw(st.sampled_from([0.0, 1.0, 10.0]))
                          for _ in range(trials)])
    noise = draw(st.sampled_from([0.0, 1.0]))
    blocks = (amplitude[:, None, None] * steer.T[:, :, None]
              * np.exp(1j * gen.uniform(-np.pi, np.pi, (trials, 1, k2)))
              + noise * (gen.standard_normal((trials, m, k2))
                         + 1j * gen.standard_normal((trials, m, k2))))
    return m, r, codebook, base, blocks


def recorded(call):
    """(result, [(warning class, message)]) of ``call()`` under "always"."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, [(type(w.message), str(w.message)) for w in caught]


def assert_stacks_match(m, r, codebook, base, blocks):
    cfg, array = PencilConfig(1, r), ArrayConfig(m, 0.5)
    single = [recorded(lambda: ref.per_trial_spc_resolve(b, block, cfg, array, codebook))
              for b, block in zip(base, blocks)]
    want = np.array([angles for angles, _ in single])
    want_warnings = [w for _, caught in single for w in caught]
    trials = len(base)
    for size in (1, 7, trials):
        parts, got_warnings = [], []
        for i in range(0, trials, size):
            angles, caught = recorded(lambda: spc_resolve(
                base[i:i + size], blocks[i:i + size], cfg, array, codebook))
            parts.append(angles)
            got_warnings += caught
        npt.assert_array_equal(np.concatenate(parts), want, err_msg=f"stack of {size}")
        assert got_warnings == want_warnings, f"stack of {size}"
    for t in range(trials):  # one unstacked input, as estimate_spc_mpm passes
        got = recorded(lambda: spc_resolve(base[t], blocks[t], cfg, array, codebook))
        npt.assert_array_equal(got[0], single[t][0])
        assert got[1] == single[t][1]


class TestStackedStage2MatchesPerTrial:
    @settings(max_examples=60, deadline=None)
    @given(stage2_trials())
    def test_stack_sizes_match_per_trial(self, case):
        assert_stacks_match(*case)

    def test_all_zero_blocks_tie_and_warn_alike(self):
        # every metric is exactly -1: all candidates tie in every trial, and
        # each (trial, source) warns once
        m, r, trials = 32, 3, 9
        codebook = build_pc_codebook(HadConfig("pc", m, 8))
        base = np.tile([-40.0, 0.0, 30.0], (trials, 1))
        base[1::2, 1] = 1e-13  # a candidate within rounding of pi
        blocks = np.zeros((trials, m, 4), dtype=complex)
        _, caught = recorded(lambda: spc_resolve(
            base, blocks, PencilConfig(1, r), ArrayConfig(m, 0.5), codebook))
        assert len(caught) == trials * r
        assert_stacks_match(m, r, codebook, base, blocks)
