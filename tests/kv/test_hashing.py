"""Process-independent key hash: known vectors and spread."""

from repro.kv.hashing import fnv1a64, stable_key_hash
from repro.workloads.ycsb import record_key


class TestStableHash:
    def test_fnv1a64_known_vectors(self):
        # FNV-1a 64 test vectors (offset basis for "", then "a").
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C

    def test_stable_across_hash_seeds(self):
        # A pinned constant: a value that depended on PYTHONHASHSEED (the
        # builtin hash()) could not match it in every interpreter.
        assert stable_key_hash("user42") == 0x7243FB2F94987C17
        assert stable_key_hash(42) == stable_key_hash("42")

    def test_distinct_keys_spread(self):
        hashes = {stable_key_hash(record_key(i)) for i in range(1000)}
        assert len(hashes) == 1000
