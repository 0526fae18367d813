"""The engine-options surface: each EngineOptions field is declared once,
in :class:`~repro.runtime.core.EngineOptions`, and parsed once, in the
CLI's option table.

Entry points take the fields as ``**fields`` (or a whole
``options=EngineOptions(...)``) instead of re-declaring them, so adding
or deleting a field touches only the field and its consumer.
"""

import argparse
import dataclasses
import inspect
import re

import pytest

from repro.bursting.config import EnvironmentConfig
from repro.bursting.driver import run_threaded_bursting, simulate_environment
from repro.bursting.session import BurstingSession
from repro.cli import OPTION_FLAGS, SERVICE_OPTION_FLAGS, build_parser, main
from repro.runtime import ENGINES, ClusterConfig, EngineOptions, make_engine
from repro.runtime.core import make_cluster_fetcher, make_cluster_fetchers
from repro.service import BurstingService
from repro.storage.local import MemoryStore
from repro.storage.transfer import ParallelFetcher

FIELDS = {f.name for f in dataclasses.fields(EngineOptions)}

#: Fields no CLI flag sets: tuning knobs, test hooks, and ``stripe``,
#: which no engine reads (placement is the dataset's, see ``--stripe``).
NOT_A_FLAG = {
    "batch_size", "group_nbytes", "scheduler_factory", "batch_fold",
    "verify_chunks", "stripe",
}


def test_every_field_is_a_flag_or_declared_not_one():
    assert set(OPTION_FLAGS) | NOT_A_FLAG == FIELDS
    assert not set(OPTION_FLAGS) & NOT_A_FLAG


def _reject_actor_in_make_engine(clusters, capsys):
    with pytest.raises(ValueError, match=re.escape(str(sorted(ENGINES)))) as err:
        make_engine("actor", clusters, {})
    return str(err.value)


def _reject_actor_in_service(clusters, capsys):
    with pytest.raises(ValueError, match=re.escape(str(sorted(ENGINES)))) as err:
        BurstingService(clusters, {}, engine="actor")
    return str(err.value)


def _reject_actor_on_the_command_line(clusters, capsys):
    with pytest.raises(SystemExit):
        main(["demo", "--engine", "actor"])
    err = capsys.readouterr().err
    assert "invalid choice" in err and "actor" in err
    return err.split("choose from")[1]


@pytest.mark.parametrize(
    "reject",
    [
        _reject_actor_in_make_engine,
        _reject_actor_in_service,
        _reject_actor_on_the_command_line,
    ],
    ids=["make_engine", "service", "cli-demo"],
)
def test_one_engine_list(reject, capsys):
    """The library and every ``--engine`` flag take their names from
    ``ENGINES``: an unregistered engine fails the same way everywhere."""
    names = sorted(ENGINES)
    assert names == ["process", "threaded"]
    message = reject([ClusterConfig("local", "local", 1)], capsys)
    assert all(name in message for name in names)


@pytest.mark.parametrize(
    "command",
    [("demo",), ("service", "run"), ("service", "submit")],
    ids=["demo", "service-run", "service-submit"],
)
def test_engine_flag_choices_are_the_registry(command):
    (engine,) = [a for a in _subparser(*command)._actions if a.dest == "engine"]
    assert engine.choices == sorted(ENGINES)


CLUSTERS = [ClusterConfig("local", "local", 1)]

#: Knobs of the deleted AIMD fan-out autotuner and of the fixed merge
#: width: every entry point that used to take one now refuses it rather
#: than swallowing it into ``**fields``.
DELETED = {
    "threaded-adaptive_fetch": (
        lambda **kw: make_engine("threaded", CLUSTERS, {}, **kw), "adaptive_fetch", True,
    ),
    "threaded-autotune_params": (
        lambda **kw: make_engine("threaded", CLUSTERS, {}, **kw), "autotune_params", None,
    ),
    "process-merge_threads": (
        lambda **kw: make_engine("process", CLUSTERS, {}, **kw), "merge_threads", 4,
    ),
    "service-adaptive_fetch": (
        lambda **kw: BurstingService(CLUSTERS, {}, **kw), "adaptive_fetch", True,
    ),
    "fetcher-autotune": (
        lambda **kw: ParallelFetcher({"local": MemoryStore()}, **kw), "autotune", None,
    ),
    "simulate-adaptive_fetch": (
        lambda **kw: simulate_environment(
            "knn", EnvironmentConfig("e", 0.5, 1, 1), **kw
        ),
        "adaptive_fetch", True,
    ),
}


@pytest.mark.parametrize("entry, name, value", DELETED.values(), ids=DELETED)
def test_deleted_knobs_are_refused(entry, name, value):
    assert name not in FIELDS
    with pytest.raises(TypeError, match=name):
        entry(**{name: value})


@pytest.mark.parametrize(
    "argv",
    [
        ["demo", "--adaptive-fetch"],
        ["demo", "--no-adaptive-fetch"],
        ["simulate", "--app", "knn", "--adaptive-fetch"],
    ],
    ids=["demo", "demo-negated", "simulate"],
)
def test_deleted_flags_are_refused(argv, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry, allowed",
    [
        # batch_size keeps its own default of 2 on the session and the
        # driver (sized in ROADMAP); the driver's stripe is placement.
        (BurstingSession.__init__, {"batch_size"}),
        (run_threaded_bursting, {"batch_size", "stripe"}),
        (make_engine, set()),
        (BurstingService.__init__, set()),
        (make_cluster_fetcher, set()),
        (make_cluster_fetchers, set()),
    ],
    ids=[
        "session", "driver", "make_engine", "service", "make_cluster_fetcher",
        "make_cluster_fetchers",
    ],
)
def test_entry_points_declare_no_field(entry, allowed):
    named = set(inspect.signature(entry).parameters) & FIELDS
    assert named <= allowed


def _subparser(*path):
    parser = build_parser()
    for name in path:
        (sub,) = [
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ]
        parser = sub.choices[name]
    return parser


@pytest.mark.parametrize(
    "command, fields",
    [(("demo",), set(OPTION_FLAGS)), (("service", "run"), set(SERVICE_OPTION_FLAGS))],
    ids=["demo", "service-run"],
)
def test_option_flags_come_from_the_table(command, fields):
    """Every option flag a command takes is its table entry: stored under
    the field's name, unset (None) unless given."""
    by_flag = {opt.flag: field for field, opt in OPTION_FLAGS.items()}
    seen = set()
    for action in _subparser(*command)._actions:
        for flag in action.option_strings:
            if flag in by_flag:
                assert action.dest == by_flag[flag]
                assert action.default is None
                seen.add(action.dest)
    assert seen == fields
