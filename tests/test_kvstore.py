import random

import pytest
from hypothesis import given, settings, strategies as st

from teebench.kvstore import BUCKET_COUNT, KvStore, bucket_of


class TestBasics:
    def test_put_get_round_trip(self):
        store = KvStore()
        block = bytes(range(256)) * 4  # 1 KiB
        store.put(7, block)
        assert store.get(7) == block

    def test_put_existing_key_replaces(self):
        store = KvStore()
        store.put(7, b"first")
        store.put(7, b"second")
        assert store.get(7) == b"second"
        assert len(store) == 1

    def test_get_on_empty_store(self):
        assert KvStore().get(42) is None

    def test_put_del_get(self):
        store = KvStore()
        store.put(1, b"x")
        assert store.delete(1) is True
        assert store.get(1) is None
        assert store.delete(1) is False

    def test_modular_bucket_placement(self):
        assert bucket_of(0) == 0
        assert bucket_of(255) == 255
        assert bucket_of(256) == 0
        assert bucket_of(1024) == 1024 % BUCKET_COUNT

    def test_empty_value_rejected(self):
        with pytest.raises(ValueError):
            KvStore().put(1, b"")

    def test_store_owns_a_copy(self):
        store = KvStore()
        buf = bytearray(b"mutable!")
        store.put(1, memoryview(buf))
        buf[0] = 0
        assert store.get(1) == b"mutable!"


def test_model_equivalence_ten_thousand_random_ops():
    # independent oracle: a plain dict driven by the identical op sequence
    rng = random.Random(20190902)
    store = KvStore()
    model: dict[int, bytes] = {}
    for step in range(10_000):
        op = rng.choice(("put", "put", "get", "get", "del"))
        key = rng.randrange(0, 2000)
        if op == "put":
            value = rng.randbytes(rng.randrange(1, 64))
            store.put(key, value)
            model[key] = value
        elif op == "get":
            assert store.get(key) == model.get(key), f"step {step}"
        else:
            assert store.delete(key) == (model.pop(key, None) is not None)
    assert len(store) == len(model)
    for key, value in model.items():
        assert store.get(key) == value


@settings(max_examples=50)
@given(ops=st.lists(
    st.tuples(
        st.sampled_from(["put", "get", "del"]),
        st.integers(min_value=-1000, max_value=1000),
        st.binary(min_size=1, max_size=16),
    ),
    max_size=200,
))
def test_model_equivalence_property(ops):
    store = KvStore()
    model = {}
    for op, key, value in ops:
        if op == "put":
            store.put(key, value)
            model[key] = value
        elif op == "get":
            assert store.get(key) == model.get(key)
        else:
            assert store.delete(key) == (model.pop(key, None) is not None)
