"""Tests for the DDP model policy table (Figs. 2-3 deltas)."""

import pytest

from repro.core.model import (ALL_MODELS, LIN_EVENT, LIN_RENF, LIN_SCOPE,
                              LIN_STRICT, LIN_SYNCH, model_by_name)
from repro.errors import ConfigError


class TestPolicies:
    def test_split_acks(self):
        assert LIN_STRICT.split_acks and LIN_RENF.split_acks
        assert not LIN_SYNCH.split_acks
        assert not LIN_EVENT.split_acks and not LIN_SCOPE.split_acks

    def test_tracks_persistency(self):
        assert LIN_SYNCH.tracks_persistency
        assert LIN_STRICT.tracks_persistency
        assert LIN_RENF.tracks_persistency
        assert not LIN_EVENT.tracks_persistency
        assert not LIN_SCOPE.tracks_persistency

    def test_persist_in_critical_path(self):
        assert LIN_SYNCH.persist_in_critical_path
        assert LIN_STRICT.persist_in_critical_path
        assert not LIN_RENF.persist_in_critical_path
        assert not LIN_EVENT.persist_in_critical_path

    def test_persistency_spin_on_obsolete(self):
        """The weak models skip PersistencySpin (§III-C)."""
        assert LIN_RENF.persistency_spin_on_obsolete
        assert not LIN_EVENT.persistency_spin_on_obsolete
        assert not LIN_SCOPE.persistency_spin_on_obsolete

    def test_client_waits_for_persist(self):
        assert LIN_SYNCH.client_waits_for_persist
        assert LIN_STRICT.client_waits_for_persist
        assert not LIN_RENF.client_waits_for_persist

    def test_rdlock_waits_for_persist(self):
        """Synch (combined VAL) and REnf hold the RDLock until
        persistency completes; Strict releases it at VAL_C."""
        assert LIN_SYNCH.rdlock_waits_for_persist
        assert LIN_RENF.rdlock_waits_for_persist
        assert not LIN_STRICT.rdlock_waits_for_persist

    def test_scopes(self):
        assert LIN_SCOPE.uses_scopes
        assert not LIN_SYNCH.uses_scopes


class TestNaming:
    def test_names(self):
        assert LIN_SYNCH.name == "<Lin, Synch>"
        assert LIN_RENF.name == "<Lin, REnf>"
        assert [m.name for m in ALL_MODELS] == [
            "<Lin, Synch>", "<Lin, Strict>", "<Lin, REnf>",
            "<Lin, Event>", "<Lin, Scope>"]

    def test_lookup_short_and_full(self):
        assert model_by_name("synch") is LIN_SYNCH
        assert model_by_name("<Lin, Strict>") is LIN_STRICT

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            model_by_name("sequential")
