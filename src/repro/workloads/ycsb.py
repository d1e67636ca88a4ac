"""YCSB-style workload generation (paper §VII, "Workloads Used").

The paper drives MINOS-KV with a C++ YCSB port: configurable read/write
mix, zipfian (default) or uniform key popularity, 100 000 records, and
100 000 requests per node.  :class:`YcsbWorkload` reproduces that request
stream; the cluster harness feeds each client driver its own deterministic
substream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum, auto
from typing import Iterator, Optional

from repro.errors import ConfigError
from repro.workloads.zipfian import make_generator


class OpKind(Enum):
    READ = auto()
    WRITE = auto()
    PERSIST = auto()


@dataclass(frozen=True)
class Op:
    """One client request."""

    kind: OpKind
    key: Optional[str] = None
    value: Optional[str] = None
    scope: Optional[int] = None
    #: Payload size in bytes (None: the machine's default record size).
    size: Optional[int] = None


def record_key(index: int) -> str:
    """The canonical key name of record *index* (YCSB's ``user<N>``)."""
    return f"user{index}"


class YcsbWorkload:
    """A reproducible YCSB-like request stream.

    Parameters mirror the paper's defaults (scaled counts are chosen by
    the caller): *records* in the database, *requests_per_client* issued
    by each closed-loop client, *write_fraction* of operations that are
    writes, *distribution* of key popularity, and — for ⟨Lin, Scope⟩ —
    *persist_every*, which closes the running scope with a [PERSIST]sc
    after that many writes.
    """

    def __init__(self, records: int = 1000, requests_per_client: int = 100,
                 write_fraction: float = 0.5,
                 distribution: str = "zipfian", theta: float = 0.99,
                 seed: int = 42,
                 persist_every: Optional[int] = None,
                 value_size: Optional[int] = None) -> None:
        if records < 1:
            raise ConfigError("records must be >= 1")
        if not 0.0 <= write_fraction <= 1.0:
            raise ConfigError("write_fraction must be within [0, 1]")
        if persist_every is not None and persist_every < 1:
            raise ConfigError("persist_every must be >= 1")
        if value_size is not None and value_size < 1:
            raise ConfigError("value_size must be >= 1")
        self.records = records
        self.requests_per_client = requests_per_client
        self.write_fraction = write_fraction
        self.distribution = distribution
        self.theta = theta
        self.seed = seed
        self.persist_every = persist_every
        self.value_size = value_size

    def initial_records(self) -> Iterator[tuple[str, str]]:
        """(key, value) pairs to pre-populate every replica with."""
        for index in range(self.records):
            yield record_key(index), f"init{index}"

    def ops_for(self, node_id: int, client_idx: int) -> Iterator[Op]:
        """The deterministic op stream of one client driver."""
        rng = random.Random(f"{self.seed}/{node_id}/{client_idx}")
        keygen = make_generator(self.distribution, self.records,
                                self.theta, rng)
        scope = node_id * 1_000_000 + client_idx * 1_000
        writes_in_scope = 0
        for request in range(self.requests_per_client):
            key = record_key(keygen.next())
            if rng.random() < self.write_fraction:
                value = f"n{node_id}c{client_idx}r{request}"
                yield Op(OpKind.WRITE, key=key, value=value, scope=scope,
                         size=self.value_size)
                writes_in_scope += 1
                if (self.persist_every is not None and
                        writes_in_scope >= self.persist_every):
                    yield Op(OpKind.PERSIST, scope=scope)
                    scope += 1
                    writes_in_scope = 0
            else:
                yield Op(OpKind.READ, key=key)
        if self.persist_every is not None and writes_in_scope:
            yield Op(OpKind.PERSIST, scope=scope)

    # -- the standard YCSB core workloads ---------------------------------

    @classmethod
    def workload_a(cls, **kwargs) -> "YcsbWorkload":
        """YCSB-A: update heavy (50/50 read/update, zipfian)."""
        kwargs.setdefault("write_fraction", 0.5)
        return cls(**kwargs)

    @classmethod
    def workload_b(cls, **kwargs) -> "YcsbWorkload":
        """YCSB-B: read mostly (95/5 read/update, zipfian)."""
        kwargs.setdefault("write_fraction", 0.05)
        return cls(**kwargs)

    @classmethod
    def workload_c(cls, **kwargs) -> "YcsbWorkload":
        """YCSB-C: read only."""
        kwargs.setdefault("write_fraction", 0.0)
        return cls(**kwargs)
