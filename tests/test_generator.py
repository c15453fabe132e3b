import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tf1crack
from tf1crack import (
    GeneratorInstance,
    Keystream,
    State,
    Tf1Params,
    WordSpec,
    default_params,
    demo_generalized_instance,
    generate,
    generate_from_instance,
    state_from_seed,
    tf1_instance,
)
from tf1crack import _native, attack, generator, tfcheck
from tf1crack.generator import (
    ColumnPrefix,
    _instance_out,
    _out,
    _rows,
    _stream,
    instance_output,
    state_prefix,
)
from tf1crack.word import low_mask

from helpers import random_states

W4 = WordSpec(4)
W8 = WordSpec(8)
W16 = WordSpec(16)


def params4(c1=5, c3=3, c=1):
    return Tf1Params(c1=c1, c3=c3, c=c, spec=W4)


def test_params_validation():
    with pytest.raises(ValueError):
        Tf1Params(c1=0x10, c3=0, c=1, spec=W4)
    p = default_params(W8)
    assert p.c & 1 == 1
    assert p.c1 <= W8.mask and p.c3 <= W8.mask


def test_compute_s_examples():
    # the step word s = (C + p) xor p, p = a & b & c & d, read back from the
    # first row, a' = a ^ s ^ 2c(b | C1)
    for (a, b, c, d, m, c1, c3, cc), s in (
        ((0, 7, 9, 3, W8.mask, 0, 0, 0x53), 0x53),  # a=0 forces p=0
        ((0xFF, 0xFF, 0xFF, 0xFF, W8.mask, 0, 0, 0x53), 0xAD),
        ((0xF, 0xF, 0xF, 0xF, W4.mask, 5, 3, 1), 0xF),
    ):
        assert _rows(a, b, c, d, m, c1, c3, cc)[0] == a ^ s ^ (2 * c * (b | c1)) & m


def test_update_zero_state():
    # C=0 makes the all-zero state a fixed point
    for params in (params4(), params4(c=0), default_params(W8), default_params(W16)):
        zero = State(0, 0, 0, 0)
        assert tf1_instance(params).t1(zero) == State(params.c, 0, 0, 0)


def test_update_hand_derived_vector():
    # w=4, C=1, C1=5, C3=3: s=1; rows give (1^1, 0^1, 2*3, 2*5) = (0, 1, 6, 10)
    assert tf1_instance(params4()).t1(State(1, 0, 0, 0)) == State(0, 1, 6, 10)


def test_update_orbit_regression_value():
    # frozen after an exhaustive first run: at w=4 with the default constants
    # the orbit of (1, 2, 3, 4) is one cycle through all 2^16 states
    step = tf1_instance(default_params(W4)).t1
    seen = {}
    st = State(1, 2, 3, 4)
    while st not in seen:
        seen[st] = len(seen)
        st = step(st)
    assert len(seen) - seen[st] == 65536


def test_update_prefix_agreement():
    # two states agreeing on columns 0..2 update to states agreeing there
    params = default_params(W8)
    m = low_mask(3)
    x = State(0b10110101, 0b01110010, 0b11010110, 0b00101101)
    y = State(x.a ^ 0b11111000, x.b ^ 0b10101000, x.c ^ 0b01010000, x.d ^ 0b11100000)
    step = tf1_instance(params).t1
    ux, uy = step(x), step(y)
    assert all((p & m) == (q & m) for p, q in zip(ux.words(), uy.words()))


def test_update_output_word_and_cycle_probe_are_gone():
    # the update is GeneratorInstance.t1 and the output word instance_output
    for name in ("update", "output_word", "cycle_probe"):
        assert not hasattr(tf1crack, name)
        assert name not in generator.__all__ and name not in tfcheck.__all__


def test_column_prefix_edge_is_reached_through_its_modules():
    # no export, but still module attributes: the benchmark calls them there
    for name in ("enumerate_preimages_dfs", "stage2_complete", "ColumnPrefix", "state_prefix"):
        assert not hasattr(tf1crack, name)
        assert name not in attack.__all__ and name not in generator.__all__
    assert callable(attack.enumerate_preimages_dfs) and callable(attack.stage2_complete)
    assert callable(generator.state_prefix) and callable(generator.ColumnPrefix)


def test_t2_examples():
    inst = tf1_instance(default_params(W8))
    assert inst.t2_words(0, 9, 0, 4, W8.mask) == 0
    assert inst.t2_words(0xFF, 0, 0x01, 0, W8.mask) == 0
    assert inst.t2_words(0x12, 0, 0x34, 0, W8.mask) == 0x46


def test_output_word_examples():
    for b, d in ((0, 0), (3, 9), (0xFF, 0x80)):
        assert _out(0xE0, b, 0x20, d, W8.mask, W8.half) == 0  # a+c wraps to 0
    assert _out(1, 0, 0, 0, W8.mask, W8.half) == 0x10
    assert _out(0x12, 0x05, 0x34, 0x0B, W8.mask, W8.half) == 0x64


def test_generate_examples():
    p = default_params(W8)
    assert len(generate(State(1, 2, 3, 4), p, 0)) == 0
    p_c1 = Tf1Params(c1=p.c1, c3=p.c3, c=1, spec=W8)
    assert generate(State(0, 0, 0, 0), p_c1, 1).words == (0x10,)
    a = generate(State(9, 9, 9, 9), p, 64)
    b = generate(State(9, 9, 9, 9), p, 64)
    assert a == b
    with pytest.raises(ValueError):
        generate(State(0, 0, 0, 0), p, -1)


def test_generate_matches_stepwise_evaluation():
    params = default_params(W16)
    seed = state_from_seed(123, W16)
    # the standard instance, compiled, and the demo instance, through its
    # word functions
    for inst in (tf1_instance(params), demo_generalized_instance(W16, params)):
        ks = generate_from_instance(seed, inst, 50)
        st = seed
        for word in ks.words:
            st = inst.t1(st)
            assert instance_output(st, inst) == word


def test_truncated_update_full_width_equals_update():
    # t1_words at the full mask against README's four update rows, written
    # out here on plain ints
    params = default_params(W8)
    c1, c3, cc = params.c1, params.c3, params.c
    t1_words = tf1_instance(params).t1_words
    for st in random_states(W8, 5, 200):
        a, b, c, d = st.words()
        p = a & b & c & d
        s = ((cc + p) % 256) ^ p
        want = (
            (a ^ s ^ 2 * c * (b | c1)) % 256,
            (b ^ (s & a) ^ 2 * c * (d | c3)) % 256,
            (c ^ (s & a & b) ^ 2 * a * (d | c3)) % 256,
            (d ^ (s & a & b & c) ^ 2 * a * (b | c1)) % 256,
        )
        assert t1_words(a, b, c, d, low_mask(8)) == want


def test_truncated_update_single_column_zero_prefix():
    # all-zero one-column prefix with odd C: only the a column turns on
    t1_words = tf1_instance(default_params(W8)).t1_words
    assert t1_words(0, 0, 0, 0, low_mask(1)) == (1, 0, 0, 0)


def test_truncated_update_is_prefix_of_update():
    inst = tf1_instance(default_params(W16))
    from tf1crack.rng import SplitMix64

    rng = SplitMix64(99)
    for st in random_states(W16, 7, 500):
        l = 1 + rng.below(16)
        low = state_prefix(st, l).words()
        assert inst.t1_words(*low, low_mask(l)) == state_prefix(inst.t1(st), l).words()


def test_truncated_t2():
    tf1 = tf1_instance(default_params(W8))
    assert tf1.t2_words(0x11, 0, 0x0F, 0, low_mask(5)) == 0  # (0x11+0x0F) mod 32
    st = State(0x12, 0, 0x34, 0)
    assert tf1.t2_words(*state_prefix(st, 8).words(), low_mask(8)) == tf1.t2_words(*st.words(), W8.mask)
    inst = demo_generalized_instance(W4, params4())
    assert inst.t2_words(1, 3, 0, 2, low_mask(4)) == ((1 + 0) & 0xF) ^ (3 & 2)


def test_predicted_output_lsb_contract():
    # the LSB bridge as the attack's filter runs it: on one tail bit it keeps
    # exactly the k-column prefixes whose state's next output has that LSB
    params = default_params(W8)
    k = W8.half + 1
    states = list(random_states(W8, 13, 2_000))
    batch = attack._to_arrays(W8, [state_prefix(st, k).words() for st in states])
    for inst in (tf1_instance(params), demo_generalized_instance(W8, params)):
        lsbs = [instance_output(inst.t1(st), inst) & 1 for st in states]
        for bit in (0, 1):
            keep, steps = attack._filter(inst, batch, k, [bit])
            assert keep.tolist() == [i for i, lsb in enumerate(lsbs) if lsb == bit]
            assert steps == len(states)


def test_predicted_output_lsb_zero_state():
    inst = tf1_instance(Tf1Params(c1=0xD5, c3=0x15, c=1, spec=W8))
    # next state is (1,0,0,0), output 0x10, LSB 0
    batch = attack._to_arrays(W8, [(0, 0, 0, 0)])
    assert attack._filter(inst, batch, 8, [0])[0].tolist() == [0]
    assert attack._filter(inst, batch, 8, [1])[0].tolist() == []


def test_demo_instance_values():
    inst = demo_generalized_instance(W4, params4())
    assert inst.t2_words(0, 5, 0, 0, W4.mask) == 0
    assert inst.t2_words(0, 0xF, 0, 0xF, W4.mask) == 0xF
    assert inst.t2_words(1, 3, 0, 2, W4.mask) == 3
    assert inst.f_words(1, 3, 0, 2) == 1
    assert not inst.tf1_native


def test_demo_instance_truncation_consistency():
    inst = demo_generalized_instance(W8, default_params(W8))
    from tf1crack.rng import SplitMix64

    rng = SplitMix64(4)
    for st in random_states(W8, 21, 2_000):
        l = 1 + rng.below(8)
        assert inst.t2_words(*state_prefix(st, l).words(), low_mask(l)) == inst.t2_words(*st.words(), W8.mask) & low_mask(l)


def test_demo_instance_spec_mismatch():
    with pytest.raises(ValueError):
        demo_generalized_instance(W8, params4())


def test_instance_word_functions_take_numpy_arrays():
    # the contract stays array-generic: on a uint64 array each built-in map
    # gives the words it gives on ints, at full width and truncated
    for spec in (W16, WordSpec(64)):
        params = default_params(spec)
        states = [st.words() for st in random_states(spec, 5, 64)]
        for inst in (tf1_instance(params), demo_generalized_instance(spec, params)):
            for m in (spec.mask, low_mask(spec.half + 1)):
                ints = [[v & m for v in st] for st in states]
                arrays = [np.array(col, dtype=np.uint64) for col in zip(*ints)]
                want = [list(col) for col in zip(*(inst.t1_words(*st, m) for st in ints))]
                assert [col.tolist() for col in inst.t1_words(*arrays, m)] == want
                assert inst.t2_words(*arrays, m).tolist() == [inst.t2_words(*st, m) for st in ints]
            full = [np.array(col, dtype=np.uint64) for col in zip(*states)]
            assert inst.f_words(*full).tolist() == [inst.f_words(*st) for st in states]
            out = (inst.t2_words, inst.f_words, spec.mask, spec.half)
            assert _instance_out(*out, *full).tolist() == [_instance_out(*out, *st) for st in states]


def test_instance_is_its_params_and_three_word_functions():
    # the width comes from the params, and only tf1_instance marks the
    # standard generator: a replaced copy of it steps the maps it holds
    params = default_params(W8)
    native = tf1_instance(params)
    demo = demo_generalized_instance(W8, params)
    names = [f.name for f in dataclasses.fields(GeneratorInstance) if f.init]
    assert names == ["params", "t1_words", "t2_words", "f_words"]
    assert native.spec is params.spec and demo.spec is params.spec
    assert native.tf1_native and not dataclasses.replace(native).tf1_native
    words = (native.t1_words, native.t2_words, native.f_words)
    for bad in ({"tf1_native": True}, {"spec": W8}, {"name": "tf1"}):
        with pytest.raises(TypeError):
            GeneratorInstance(params, *words, **bad)
    for bad in ({"tf1_native": True}, {"spec": W8}):
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(native, **bad)
    x = dataclasses.replace(native, t2_words=demo.t2_words, f_words=demo.f_words)
    assert not x.tf1_native
    seed = state_from_seed(4, W8)
    want = generate_from_instance(seed, demo, 4096)
    assert generate_from_instance(seed, x, 4096) == want
    assert want.words[:6] != generate(seed, params, 6).words


def test_generate_rejects_seed_words_outside_the_width():
    # the rows read only the low w bits, so each seed would emit the
    # stream of its words reduced mod 2**w, as verify_state already refuses
    params = default_params(W8)
    demo = demo_generalized_instance(W8, params)
    for bad, shown in ((State(261, 7, 9, 11), "a 0x105"), (State(5, 7, 9, -1), "d -0x1")):
        with pytest.raises(ValueError, match=f"{shown} out of range for width 8"):
            generate(bad, params, 6)
        with pytest.raises(ValueError, match=f"{shown} out of range for width 8"):
            generate_from_instance(bad, demo, 6)


def test_tf1_instance_reproduces_generator():
    params = default_params(W8)
    inst = tf1_instance(params)
    for st in random_states(W8, 3, 300):
        assert instance_output(st, inst) == _out(*st.words(), W8.mask, W8.half)
    seed = state_from_seed(8, W8)
    # past the first call of the compiled stream, which the standard
    # instance runs, and its generic twin its word functions
    n = generator._BLOCK + 5
    want = generate(seed, params, n)
    for instance in (inst, dataclasses.replace(inst)):
        assert generate_from_instance(seed, instance, n) == want


def test_compiled_stream_matches_the_word_function_stream():
    # The standard generator's stream runs the compiled tf1_stream in calls
    # of _BLOCK words; each length ends at or next to one of their seams.
    # Random constants at every width, C even at every third, and every
    # setting of the low two bits of C1 and C3 between w=4 and w=34.  The
    # generic twin, which steps the word functions, is the reference.
    from tf1crack.rng import SplitMix64

    assert _native.stream() is not None
    rng = SplitMix64(2020)
    block = generator._BLOCK
    lengths = (0, 1, block - 1, block, block + 1, 2 * block + 37)
    for idx, w in enumerate(range(4, 66, 2)):
        spec = WordSpec(w)
        draw = [rng.next64() & spec.mask for _ in range(3)]
        params = Tf1Params(
            c1=draw[0] & ~3 | idx % 4,
            c3=draw[1] & ~3 | idx // 4 % 4,
            c=draw[2] & ~1 | (idx % 3 != 0),
            spec=spec,
        )
        native = tf1_instance(params)
        seed = state_from_seed(rng.next64(), spec)
        want = generate_from_instance(seed, dataclasses.replace(native), lengths[-1]).words
        for n in lengths:
            assert tuple(_stream(seed, native, n)) == want[:n], (w, n)
            assert generate(seed, params, n).words == want[:n], (w, n)


def test_state_from_seed_deterministic():
    assert state_from_seed(7, W16) == state_from_seed(7, W16)
    assert state_from_seed(7, W16) != state_from_seed(8, W16)
    st = state_from_seed(0xFFFF_FFFF_FFFF_FFFF, W4)
    assert all(v <= W4.mask for v in st.words())


def test_column_prefix_validation():
    with pytest.raises(ValueError, match="a_low=0x8 does not fit in 3 columns"):
        ColumnPrefix(3, 8, 0, 0, 0).validate(W8)
    for l in (0, 9):
        with pytest.raises(ValueError, match=f"prefix length {l} out of range"):
            ColumnPrefix(l, 0, 0, 0, 0).validate(W8)
    prefix = ColumnPrefix(3, 7, 7, 7, 7)
    assert prefix.validate(W8) is prefix


def test_keystream_container():
    # ``words`` is the one read path: no indexing or iteration of the container
    ks = Keystream(W8, [1, 2, 3])
    assert len(ks) == 3 and ks.words == (1, 2, 3)
    assert not hasattr(ks, "__getitem__") and not hasattr(ks, "__iter__")


@given(st.integers(min_value=0, max_value=(1 << 64) - 1), st.integers(min_value=1, max_value=16))
@settings(max_examples=200)
def test_update_tfunction_property_hypothesis(noise, k):
    params = default_params(W16)
    x = state_from_seed(noise, W16)
    keep = low_mask(k)
    y = State(
        (x.a & keep) | (~noise & W16.mask & ~keep),
        x.b & keep,
        (x.c & keep) | (noise >> 7 & W16.mask & ~keep),
        x.d & keep,
    )
    step = tf1_instance(params).t1
    ux, uy = step(x), step(y)
    assert all((p & keep) == (q & keep) for p, q in zip(ux.words(), uy.words()))
