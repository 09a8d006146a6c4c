"""Trial synthesis and SPC stage 2 against the per-trial kernels they replaced.

``reference_kernels`` holds those kernels verbatim: a SeedSequence built
from the list [seed, *labels], one real and one imaginary draw per signal
segment, and one stage-2 resolve per trial. The package's word-array
generator must reach the same PCG64 state, its one-draw signal blocks must
equal the per-segment draws, and a stacked stage 2 must give each trial's
bits and warnings as a per-trial resolve does, at any stack size.
"""

import warnings

import numpy as np
import numpy.testing as npt
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from pencil_doa import ArrayConfig, HadConfig, PencilConfig, SourceSet, build_pc_codebook
from pencil_doa.arrays import RngSpec, generate_signals
from pencil_doa.estimators import disambiguation_combiners, spc_resolve

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
