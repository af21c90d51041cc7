"""Shared fixtures of the campaign tests."""

import sqlite3

import pytest

from repro.campaign.store import CampaignStore

#: Statement keywords that change a store's schema.
DDL = ("CREATE", "ALTER", "DROP")


@pytest.fixture
def ddl_on_open(monkeypatch):
    """``ddl_on_open(path)`` opens and closes a :class:`CampaignStore` on
    ``path`` and returns the schema-changing statements the open ran, as
    seen by every connection's ``set_trace_callback``."""
    def open_store(path):
        statements = []
        connect = sqlite3.connect

        def traced(*args, **kwargs):
            conn = connect(*args, **kwargs)
            conn.set_trace_callback(statements.append)
            return conn

        with monkeypatch.context() as patch:
            patch.setattr(sqlite3, "connect", traced)
            CampaignStore(path).close()
        return [sql for sql in statements
                if sql.split(None, 1)[0].upper() in DDL]
    return open_store
