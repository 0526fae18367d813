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

import pytest

from repro.bursting.driver import run_threaded_bursting
from repro.bursting.session import BurstingSession
from repro.cli import OPTION_FLAGS, SERVICE_OPTION_FLAGS, build_parser
from repro.runtime import EngineOptions, make_engine
from repro.runtime.core import make_cluster_fetchers
from repro.service import BurstingService

FIELDS = {f.name for f in dataclasses.fields(EngineOptions)}

#: Fields no CLI flag sets: tuning knobs, test hooks, and ``stripe``,
#: which no engine reads (placement is the dataset's, see ``--stripe``).
NOT_A_FLAG = {
    "batch_size", "group_nbytes", "scheduler_factory", "batch_fold",
    "verify_chunks", "autotune_params", "stripe", "start_method",
    "merge_threads",
}


def test_every_field_is_a_flag_or_declared_not_one():
    assert set(OPTION_FLAGS) | NOT_A_FLAG == FIELDS
    assert not set(OPTION_FLAGS) & NOT_A_FLAG


@pytest.mark.parametrize(
    "entry, allowed",
    [
        # batch_size keeps its own default of 2 on the session and the
        # driver (sized in ROADMAP); the driver's stripe is placement.
        (BurstingSession.__init__, {"batch_size"}),
        (run_threaded_bursting, {"batch_size", "stripe"}),
        (make_engine, set()),
        (BurstingService.__init__, set()),
        (make_cluster_fetchers, set()),
    ],
    ids=["session", "driver", "make_engine", "service", "make_cluster_fetchers"],
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
