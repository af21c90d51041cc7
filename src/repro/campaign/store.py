"""Durable SQLite-backed campaign results store.

Every run of every campaign lives in one SQLite database (WAL mode, so
the orchestrator and every pool worker read/write concurrently).  The
store is the single source of truth for campaign state; orchestrators
and workers are stateless against it, which is what makes ``kill -9``
of either side recoverable.

Run-state machine::

    pending -> claimed -> running -> done
                   \\          \\---> failed       (retry budget exhausted)
                    \\          \\--> quarantined  (deterministic failure)
                     \\
                      +<-- expired-lease reclaim (claimed/running whose
                           lease passed; back to pending, or quarantined
                           once the attempt budget is burned)

Robustness contracts:

* **Idempotent claims** — claiming is a single ``UPDATE ... WHERE
  state='pending'`` with a fresh ``claim_token``; two racing claimants
  can never both own a run because only one UPDATE matches.
* **Exactly-once completion** — terminal transitions are guarded by
  ``claim_token``; a worker whose lease was reclaimed (it looked dead
  but was only slow) gets its stale result rejected instead of
  double-recording the cell.
* **One transaction to begin, one to finish** — :meth:`mark_running`
  checks the token, moves the run to ``running`` and returns it with
  its ``done`` twin; :meth:`record_done` or :meth:`record_failure`
  finishes it.  A worker makes no other store call per cell.
* **Crash detection via leases** — each worker process's lease keeper
  heartbeats ``lease_expires_at``; :meth:`reclaim_expired` re-queues
  runs whose lease passed (their worker is presumed dead) and
  quarantines runs that keep burning attempts without ever reporting
  an error (a crash-looping cell).
* **Policy inside the transition** — :meth:`record_failure` applies the
  :class:`~repro.campaign.policy.RetryPolicy` within the same immediate
  transaction that reads the previous error class, so retry/quarantine
  decisions are atomic with the state they depend on.
* **Runs shared by key** — every row keeps its cell's
  :func:`~repro.campaign.grid.run_key`; the twin :meth:`mark_running`
  returns is a ``done`` row of the same run, whose result a worker may
  record for its own cell instead of simulating it again.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import sqlite3
import time
import typing as t
import uuid

from repro.campaign.grid import RUN_LABELS, RunSpec, run_key
from repro.campaign.policy import FAIL, QUARANTINE, RETRY, RetryPolicy
from repro.errors import CampaignStoreError

#: Every legal run state.
STATES = ("pending", "claimed", "running", "done", "failed", "quarantined")

#: States a run can still leave.
ACTIVE_STATES = ("pending", "claimed", "running")

#: States a run never leaves.
TERMINAL_STATES = ("done", "failed", "quarantined")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS campaigns (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    name        TEXT NOT NULL,
    grid_json   TEXT NOT NULL,
    created_at  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    campaign_id      INTEGER NOT NULL,
    spec_id          TEXT NOT NULL,
    runner           TEXT NOT NULL,
    params_json      TEXT NOT NULL,
    state            TEXT NOT NULL DEFAULT 'pending',
    attempt          INTEGER NOT NULL DEFAULT 0,
    not_before       REAL NOT NULL DEFAULT 0,
    claim_token      TEXT,
    claimed_by       TEXT,
    claimed_at       REAL,
    heartbeat_at     REAL,
    lease_expires_at REAL,
    started_at       REAL,
    finished_at      REAL,
    wall_time_s      REAL,
    error_class      TEXT,
    last_error_class TEXT,
    error            TEXT,
    traceback        TEXT,
    result_json      TEXT,
    run_key          TEXT,
    reused_from      TEXT,
    PRIMARY KEY (campaign_id, spec_id)
);
CREATE INDEX IF NOT EXISTS runs_by_state
    ON runs (campaign_id, state, not_before);
"""

#: Created after :meth:`CampaignStore._migrate`, which adds the column
#: to stores written before runs had keys.
_RUN_KEY_INDEX = """
CREATE INDEX IF NOT EXISTS runs_by_run_key
    ON runs (campaign_id, run_key, state);
"""

#: Stamped into ``PRAGMA user_version`` once ``_SCHEMA``, the migration
#: and ``_RUN_KEY_INDEX`` have run; raise it when the schema changes.
SCHEMA_VERSION = 1


def encode_result(result: t.Mapping[str, object]) -> str:
    """A run result as the JSON text the store keeps; raises
    ``TypeError`` for a value JSON cannot encode."""
    return json.dumps(dict(result), sort_keys=True)


@dataclasses.dataclass(frozen=True)
class RunRow:
    """One run as recorded in the store."""

    campaign_id: int
    spec_id: str
    runner: str
    params: dict
    state: str
    attempt: int
    not_before: float
    claim_token: str | None
    claimed_by: str | None
    heartbeat_at: float | None
    lease_expires_at: float | None
    wall_time_s: float | None
    error_class: str | None
    error: str | None
    traceback: str | None
    result: dict | None
    #: Identity of the run (see :func:`~repro.campaign.grid.run_key`).
    run_key: str | None = None
    #: ``spec_id`` of the ``done`` twin whose result this cell copied.
    reused_from: str | None = None

    @classmethod
    def from_sql(cls, row: sqlite3.Row) -> "RunRow":
        return cls(
            campaign_id=row["campaign_id"],
            spec_id=row["spec_id"],
            runner=row["runner"],
            params=json.loads(row["params_json"]),
            state=row["state"],
            attempt=row["attempt"],
            not_before=row["not_before"],
            claim_token=row["claim_token"],
            claimed_by=row["claimed_by"],
            heartbeat_at=row["heartbeat_at"],
            lease_expires_at=row["lease_expires_at"],
            wall_time_s=row["wall_time_s"],
            error_class=row["error_class"],
            error=row["error"],
            traceback=row["traceback"],
            result=(json.loads(row["result_json"])
                    if row["result_json"] else None),
            run_key=row["run_key"],
            reused_from=row["reused_from"],
        )


@dataclasses.dataclass(frozen=True)
class CampaignInfo:
    id: int
    name: str
    grid_json: str
    created_at: float


class CampaignStore:
    """One SQLite connection to the durable campaign database.

    Instances are single-threaded by design: the orchestrator, each
    pool worker and each worker's lease keeper open their own store on
    the same path and coordinate purely through SQLite's locking.  A
    worker keeps its store open across the cells it serves.
    Opening a store whose ``user_version`` stamp is current runs only
    the connection pragmas; the schema script and the migration run
    while the stamp is missing or older than :data:`SCHEMA_VERSION`.
    """

    def __init__(self, path: str | pathlib.Path,
                 create: bool = True,
                 busy_timeout_s: float = 10.0) -> None:
        self.path = pathlib.Path(path)
        if not create and not self.path.exists():
            raise CampaignStoreError(f"no campaign store at {self.path}")
        if create:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self._conn = sqlite3.connect(
                self.path, timeout=busy_timeout_s,
                isolation_level=None)  # autocommit; explicit BEGIN below
            self._conn.row_factory = sqlite3.Row
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(
                f"PRAGMA busy_timeout={int(busy_timeout_s * 1000)}")
            if self._conn.execute(
                    "PRAGMA user_version").fetchone()[0] < SCHEMA_VERSION:
                self._conn.executescript(_SCHEMA)
                self._migrate()
                self._conn.executescript(_RUN_KEY_INDEX)
                self._conn.execute(f"PRAGMA user_version={SCHEMA_VERSION}")
        except sqlite3.Error as exc:
            raise CampaignStoreError(
                f"cannot open campaign store {self.path}: {exc}") from exc

    def _migrate(self) -> None:
        """Add ``run_key``/``reused_from`` to a store created before
        them and backfill ``run_key`` for cells of labelled runners.

        Re-checked under the write lock: concurrent openers of an old
        store migrate it once.
        """
        def has_run_key() -> bool:
            return any(row["name"] == "run_key" for row in
                       self._conn.execute("PRAGMA table_info(runs)"))

        if has_run_key():
            return
        with self._immediate() as conn:
            if has_run_key():
                return
            for column in ("run_key", "reused_from"):
                conn.execute(f"ALTER TABLE runs ADD COLUMN {column} TEXT")
            marks = ",".join("?" for _ in RUN_LABELS)
            rows = conn.execute(
                f"SELECT campaign_id, spec_id, runner, params_json "
                f"FROM runs WHERE runner IN ({marks})",
                tuple(RUN_LABELS)).fetchall()
            conn.executemany(
                "UPDATE runs SET run_key = ? "
                "WHERE campaign_id = ? AND spec_id = ?",
                [(run_key(row["runner"], json.loads(row["params_json"])),
                  row["campaign_id"], row["spec_id"]) for row in rows])

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    # -- transaction helper ----------------------------------------------------

    def _immediate(self) -> "_Txn":
        return _Txn(self._conn)

    # -- campaigns -------------------------------------------------------------

    def create_campaign(self, name: str, grid_json: str = "[]",
                        now: float | None = None) -> int:
        """Register a campaign; returns its integer id."""
        now = time.time() if now is None else now
        try:
            with self._immediate() as conn:
                cursor = conn.execute(
                    "INSERT INTO campaigns (name, grid_json, created_at) "
                    "VALUES (?, ?, ?)", (name, grid_json, now))
                return int(t.cast(int, cursor.lastrowid))
        except sqlite3.Error as exc:
            raise CampaignStoreError(f"cannot create campaign: {exc}") \
                from exc

    def campaign(self, campaign_id: int) -> CampaignInfo:
        row = self._query(
            "SELECT * FROM campaigns WHERE id = ?", (campaign_id,)
        ).fetchone()
        if row is None:
            raise CampaignStoreError(
                f"no campaign {campaign_id} in {self.path}")
        return CampaignInfo(id=row["id"], name=row["name"],
                            grid_json=row["grid_json"],
                            created_at=row["created_at"])

    def campaigns(self) -> list[CampaignInfo]:
        rows = self._query("SELECT * FROM campaigns ORDER BY id").fetchall()
        return [CampaignInfo(id=r["id"], name=r["name"],
                             grid_json=r["grid_json"],
                             created_at=r["created_at"]) for r in rows]

    def _query(self, sql: str, args: tuple = ()) -> sqlite3.Cursor:
        try:
            return self._conn.execute(sql, args)
        except sqlite3.Error as exc:
            raise CampaignStoreError(
                f"campaign store {self.path} query failed: {exc}") from exc

    # -- run registration ------------------------------------------------------

    def add_runs(self, campaign_id: int,
                 specs: t.Sequence[RunSpec]) -> int:
        """Insert cells idempotently; returns how many were new.

        Resubmitting a grid into an existing campaign is a no-op for
        cells already present (whatever their state) — resume must
        never reset recorded work.
        """
        inserted = 0
        try:
            with self._immediate() as conn:
                for spec in specs:
                    cursor = conn.execute(
                        "INSERT OR IGNORE INTO runs "
                        "(campaign_id, spec_id, runner, params_json, "
                        "run_key) VALUES (?, ?, ?, ?, ?)",
                        (campaign_id, spec.spec_id, spec.runner,
                         json.dumps(dict(sorted(spec.params.items())),
                                    sort_keys=True),
                         run_key(spec.runner, spec.params)))
                    inserted += cursor.rowcount
        except sqlite3.Error as exc:
            raise CampaignStoreError(f"cannot add runs: {exc}") from exc
        return inserted

    # -- claims and leases -----------------------------------------------------

    def claim_next(self, campaign_id: int, claimed_by: str,
                   lease_s: float, now: float | None = None
                   ) -> RunRow | None:
        """Atomically claim one eligible pending run, or return None.

        The claim is a single UPDATE guarded by ``state='pending'``:
        concurrent claimants (several orchestrators, or an orchestrator
        racing its own previous incarnation) can never both win the
        same run.
        """
        now = time.time() if now is None else now
        token = uuid.uuid4().hex
        try:
            with self._immediate() as conn:
                row = conn.execute(
                    "SELECT spec_id FROM runs WHERE campaign_id = ? AND "
                    "state = 'pending' AND not_before <= ? "
                    "ORDER BY spec_id LIMIT 1",
                    (campaign_id, now)).fetchone()
                if row is None:
                    return None
                cursor = conn.execute(
                    "UPDATE runs SET state = 'claimed', "
                    "attempt = attempt + 1, claim_token = ?, "
                    "claimed_by = ?, claimed_at = ?, heartbeat_at = ?, "
                    "lease_expires_at = ?, error_class = NULL, "
                    "error = NULL, traceback = NULL "
                    "WHERE campaign_id = ? AND spec_id = ? AND "
                    "state = 'pending'",
                    (token, claimed_by, now, now, now + lease_s,
                     campaign_id, row["spec_id"]))
                if cursor.rowcount != 1:  # pragma: no cover - race window
                    return None
                claimed = conn.execute(
                    "SELECT * FROM runs WHERE campaign_id = ? AND "
                    "spec_id = ?", (campaign_id, row["spec_id"])).fetchone()
        except sqlite3.Error as exc:
            raise CampaignStoreError(f"claim failed: {exc}") from exc
        return RunRow.from_sql(claimed)

    def mark_running(self, campaign_id: int, spec_id: str,
                     claim_token: str, now: float | None = None
                     ) -> tuple[RunRow, tuple[str, dict] | None] | None:
        """Begin a claimed run: claimed -> running (token-guarded).

        One immediate transaction moves the run, reads it back and looks
        up its ``done`` twin: a ``done`` cell of this campaign with the
        same run key (the lowest such spec id; failed and quarantined
        cells never count).  Returns ``(row, (twin spec id, twin result)
        or None)``, or None when the claim is stale.
        """
        now = time.time() if now is None else now
        try:
            with self._immediate() as conn:
                cursor = conn.execute(
                    "UPDATE runs SET state = 'running', started_at = ?, "
                    "heartbeat_at = ? "
                    "WHERE campaign_id = ? AND spec_id = ? AND "
                    "claim_token = ? AND state = 'claimed'",
                    (now, now, campaign_id, spec_id, claim_token))
                if cursor.rowcount != 1:
                    return None
                row = RunRow.from_sql(conn.execute(
                    "SELECT * FROM runs WHERE campaign_id = ? AND "
                    "spec_id = ?", (campaign_id, spec_id)).fetchone())
                twin = None if row.run_key is None else conn.execute(
                    "SELECT spec_id, result_json FROM runs "
                    "WHERE campaign_id = ? AND run_key = ? AND "
                    "state = 'done' ORDER BY spec_id LIMIT 1",
                    (campaign_id, row.run_key)).fetchone()
        except sqlite3.Error as exc:
            raise CampaignStoreError(f"begin failed: {exc}") from exc
        if twin is None:
            return row, None
        return row, (twin["spec_id"], json.loads(twin["result_json"]))

    def heartbeat(self, campaign_id: int, spec_id: str, claim_token: str,
                  lease_s: float, now: float | None = None) -> bool:
        """Extend the claim lease; False once the claim was reclaimed."""
        now = time.time() if now is None else now
        cursor = self._transition(
            "UPDATE runs SET heartbeat_at = ?, lease_expires_at = ? "
            "WHERE campaign_id = ? AND spec_id = ? AND claim_token = ? "
            "AND state IN ('claimed', 'running')",
            (now, now + lease_s, campaign_id, spec_id, claim_token))
        return cursor.rowcount == 1

    def release_claim(self, campaign_id: int, spec_id: str,
                      claim_token: str) -> bool:
        """claimed -> pending for a run that never started executing.

        Used by the orchestrator when its process pool breaks before a
        dispatched run reached the worker: the run can be re-queued
        immediately instead of waiting out the lease.  Only the
        ``claimed`` state is eligible — a ``running`` run may still be
        executing somewhere, so it must age out via its lease.
        """
        cursor = self._transition(
            "UPDATE runs SET state = 'pending', claim_token = NULL, "
            "claimed_by = NULL, claimed_at = NULL, heartbeat_at = NULL, "
            "lease_expires_at = NULL, attempt = attempt - 1 "
            "WHERE campaign_id = ? AND spec_id = ? AND claim_token = ? "
            "AND state = 'claimed'",
            (campaign_id, spec_id, claim_token))
        return cursor.rowcount == 1

    def reclaim_expired(self, campaign_id: int, policy: RetryPolicy,
                        now: float | None = None) -> list[str]:
        """Re-queue claimed/running runs whose lease expired.

        The claimant is presumed dead (worker SIGKILL, orchestrator
        ``kill -9``, machine loss).  Runs still inside their attempt
        budget go back to ``pending``; runs that already burned the
        budget without ever reporting a typed error are quarantined as
        crash-looping.  Returns the re-queued spec ids.
        """
        now = time.time() if now is None else now
        reclaimed: list[str] = []
        try:
            with self._immediate() as conn:
                rows = conn.execute(
                    "SELECT spec_id, attempt FROM runs "
                    "WHERE campaign_id = ? AND "
                    "state IN ('claimed', 'running') AND "
                    "lease_expires_at < ? ORDER BY spec_id",
                    (campaign_id, now)).fetchall()
                for row in rows:
                    if row["attempt"] >= policy.max_attempts:
                        conn.execute(
                            "UPDATE runs SET state = 'quarantined', "
                            "claim_token = NULL, finished_at = ?, "
                            "error_class = 'WorkerCrash', "
                            "error = ? "
                            "WHERE campaign_id = ? AND spec_id = ? AND "
                            "state IN ('claimed', 'running')",
                            (now,
                             f"lease expired on every one of "
                             f"{row['attempt']} attempts; claimant keeps "
                             f"dying without reporting an error",
                             campaign_id, row["spec_id"]))
                    else:
                        conn.execute(
                            "UPDATE runs SET state = 'pending', "
                            "claim_token = NULL, claimed_by = NULL, "
                            "claimed_at = NULL, heartbeat_at = NULL, "
                            "lease_expires_at = NULL "
                            "WHERE campaign_id = ? AND spec_id = ? AND "
                            "state IN ('claimed', 'running')",
                            (campaign_id, row["spec_id"]))
                        reclaimed.append(row["spec_id"])
        except sqlite3.Error as exc:
            raise CampaignStoreError(f"lease reclaim failed: {exc}") from exc
        return reclaimed

    # -- terminal transitions --------------------------------------------------

    def record_done(self, campaign_id: int, spec_id: str, claim_token: str,
                    result: t.Mapping[str, object] | str,
                    wall_time_s: float, now: float | None = None,
                    reused_from: str | None = None) -> bool:
        """running -> done (token-guarded, exactly-once).

        ``result`` is a JSON-safe mapping or its JSON text, as encoded
        by :func:`encode_result`.  ``reused_from`` names the ``done``
        twin whose result this is.
        Returns False when the claim went stale — the run was reclaimed
        and belongs to a newer attempt, so this result is dropped.
        """
        now = time.time() if now is None else now
        cursor = self._transition(
            "UPDATE runs SET state = 'done', result_json = ?, "
            "wall_time_s = ?, finished_at = ?, claim_token = NULL, "
            "error_class = NULL, error = NULL, traceback = NULL, "
            "reused_from = ? "
            "WHERE campaign_id = ? AND spec_id = ? AND claim_token = ? "
            "AND state IN ('claimed', 'running')",
            (result if isinstance(result, str) else encode_result(result),
             wall_time_s, now, reused_from, campaign_id, spec_id,
             claim_token))
        return cursor.rowcount == 1

    def record_failure(self, campaign_id: int, spec_id: str,
                       claim_token: str, policy: RetryPolicy,
                       error_class: str, error: str, traceback_text: str,
                       wall_time_s: float,
                       now: float | None = None) -> str | None:
        """Apply the retry policy to a failed attempt, atomically.

        Reads the previous error class and the attempt count, decides
        retry / fail / quarantine, and performs the matching transition
        — all in one immediate transaction guarded by the claim token.
        Returns the resulting state (``pending``/``failed``/
        ``quarantined``) or None when the claim was stale.
        """
        now = time.time() if now is None else now
        try:
            with self._immediate() as conn:
                row = conn.execute(
                    "SELECT attempt, last_error_class FROM runs "
                    "WHERE campaign_id = ? AND spec_id = ? AND "
                    "claim_token = ? AND state IN ('claimed', 'running')",
                    (campaign_id, spec_id, claim_token)).fetchone()
                if row is None:
                    return None
                decision = policy.decide(row["attempt"], error_class,
                                         row["last_error_class"])
                if decision.action == RETRY:
                    conn.execute(
                        "UPDATE runs SET state = 'pending', "
                        "claim_token = NULL, claimed_by = NULL, "
                        "not_before = ?, last_error_class = ?, "
                        "error_class = ?, error = ?, traceback = ?, "
                        "wall_time_s = ? "
                        "WHERE campaign_id = ? AND spec_id = ?",
                        (now + decision.delay_s, error_class, error_class,
                         error, traceback_text, wall_time_s,
                         campaign_id, spec_id))
                    return "pending"
                state = ("quarantined" if decision.action == QUARANTINE
                         else "failed")
                assert decision.action in (FAIL, QUARANTINE)
                conn.execute(
                    "UPDATE runs SET state = ?, claim_token = NULL, "
                    "finished_at = ?, last_error_class = ?, "
                    "error_class = ?, error = ?, traceback = ?, "
                    "wall_time_s = ? "
                    "WHERE campaign_id = ? AND spec_id = ?",
                    (state, now, error_class, error_class,
                     f"{error} [{decision.reason}]", traceback_text,
                     wall_time_s, campaign_id, spec_id))
                return state
        except sqlite3.Error as exc:
            raise CampaignStoreError(
                f"failure transition failed: {exc}") from exc

    def _transition(self, sql: str, args: tuple) -> sqlite3.Cursor:
        try:
            with self._immediate() as conn:
                return conn.execute(sql, args)
        except sqlite3.Error as exc:
            raise CampaignStoreError(
                f"campaign store transition failed: {exc}") from exc

    # -- inspection ------------------------------------------------------------

    def run(self, campaign_id: int, spec_id: str) -> RunRow:
        row = self._query(
            "SELECT * FROM runs WHERE campaign_id = ? AND spec_id = ?",
            (campaign_id, spec_id)).fetchone()
        if row is None:
            raise CampaignStoreError(
                f"no run {spec_id} in campaign {campaign_id}")
        return RunRow.from_sql(row)

    def runs(self, campaign_id: int,
             states: t.Sequence[str] | None = None) -> list[RunRow]:
        if states:
            marks = ",".join("?" for _ in states)
            rows = self._query(
                f"SELECT * FROM runs WHERE campaign_id = ? AND "
                f"state IN ({marks}) ORDER BY spec_id",
                (campaign_id, *states)).fetchall()
        else:
            rows = self._query(
                "SELECT * FROM runs WHERE campaign_id = ? ORDER BY spec_id",
                (campaign_id,)).fetchall()
        return [RunRow.from_sql(row) for row in rows]

    def counts(self, campaign_id: int) -> dict[str, int]:
        """State -> run count, with every state present (zero included)."""
        rows = self._query(
            "SELECT state, COUNT(*) AS n FROM runs "
            "WHERE campaign_id = ? GROUP BY state", (campaign_id,))
        counts = {state: 0 for state in STATES}
        for row in rows:
            counts[row["state"]] = row["n"]
        return counts

    def reused_count(self, campaign_id: int) -> int:
        """How many ``done`` cells copied a twin's result."""
        row = self._query(
            "SELECT COUNT(*) AS n FROM runs WHERE campaign_id = ? AND "
            "reused_from IS NOT NULL", (campaign_id,)).fetchone()
        return int(row["n"])

    def active_count(self, campaign_id: int) -> int:
        row = self._query(
            "SELECT COUNT(*) AS n FROM runs WHERE campaign_id = ? AND "
            "state IN ('pending', 'claimed', 'running')",
            (campaign_id,)).fetchone()
        return int(row["n"])

    def next_wakeup(self, campaign_id: int) -> float | None:
        """Earliest future instant at which new work can appear.

        The minimum over pending ``not_before`` gates and outstanding
        lease expiries; None when nothing is time-gated.
        """
        row = self._query(
            "SELECT MIN(x) AS wake FROM ("
            "  SELECT not_before AS x FROM runs WHERE campaign_id = ? "
            "    AND state = 'pending'"
            "  UNION ALL "
            "  SELECT lease_expires_at AS x FROM runs "
            "    WHERE campaign_id = ? AND state IN ('claimed', 'running')"
            ")", (campaign_id, campaign_id)).fetchone()
        return row["wake"] if row and row["wake"] is not None else None


class _Txn:
    """BEGIN IMMEDIATE transaction scope (commit/rollback on exit)."""

    def __init__(self, conn: sqlite3.Connection) -> None:
        self._conn = conn

    def __enter__(self) -> sqlite3.Connection:
        self._conn.execute("BEGIN IMMEDIATE")
        return self._conn

    def __exit__(self, exc_type: object, *_rest: object) -> None:
        if exc_type is None:
            self._conn.execute("COMMIT")
        else:
            self._conn.execute("ROLLBACK")


def open_store_readonly(path: str | pathlib.Path) -> CampaignStore:
    """Open an existing store, with typed errors for missing/corrupt files.

    ``python -m repro campaign status``/``report``/``diff`` and
    ``diagnose --from-campaign`` go through here so a missing database
    or a file that is not SQLite surfaces as a
    :class:`CampaignStoreError` (a :class:`~repro.errors.ReproError`)
    instead of a traceback.
    """
    store = CampaignStore(path, create=False)
    try:
        store._conn.execute("SELECT id FROM campaigns LIMIT 1").fetchone()
    except sqlite3.Error as exc:
        store.close()
        raise CampaignStoreError(
            f"{path} is not a campaign store (corrupt or wrong file): "
            f"{exc}") from exc
    return store
