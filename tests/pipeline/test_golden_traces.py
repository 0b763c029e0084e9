"""Golden trace lock: generated traces pinned byte for byte.

Every trace the reproduction simulates comes out of
:func:`~repro.pipeline.tracegen.generate_trace`.  These tests pin the
content hash of its columns (:meth:`TraceBundle.content_hash`) and the
front-end statistics for every paper workload at two seeds and two
cores, plus one longer trace.  A change that alters a generated trace
fails here; one that only edits generator-hashed source files (and so
re-keys the trace store) does not.  Updating a golden is a change to
the science and belongs in CHANGES.md.
"""

from __future__ import annotations

from dataclasses import astuple

import pytest

from repro.pipeline.tracegen import generate_trace
from repro.workloads.spec import WORKLOAD_NAMES

#: (workload, seed, core) -> (content hash, FrontEndStats fields in
#: declaration order) for 20,000-instruction traces.
SHORT_GOLDENS = {
    ("oltp-db2", 1, 0): (
        "52925062cc0dbd07086a8cf6bd3609b4f7268b53dc848ff135915387f4f20a4f",
        (669, 197, 31, 121, 4, 1394, 1958)),
    ("oltp-db2", 1, 1): (
        "014e1e62ef9fa4875543b14d0ec4300813d49efef529b92a6ba23e0c38c11579",
        (779, 258, 24, 153, 1, 1721, 1959)),
    ("oltp-db2", 2, 0): (
        "e791dfd4d0557821adeedec45ef75e377b4d3c95bdc1ab1afd62258dd42d523e",
        (815, 176, 8, 88, 4, 1220, 1922)),
    ("oltp-db2", 2, 1): (
        "237b6693d1e04a40d742b5e3fa04b89072f97641af82b5fc9d6dc5e803821564",
        (828, 178, 10, 86, 2, 1265, 1984)),
    ("oltp-oracle", 1, 0): (
        "d2ddd58212d073a231cd01d1796763ce75215777b864f166ccf8e9309ec7e431",
        (943, 233, 15, 104, 6, 1453, 1949)),
    ("oltp-oracle", 1, 1): (
        "e0663abb72412c538a1286fd80df731b0d1ded9ab532490b79d778ec8253d4bb",
        (918, 239, 0, 98, 7, 1456, 1931)),
    ("oltp-oracle", 2, 0): (
        "ab23127ca06fe8daffb4cc44199d175166cc7305168f4626259176e5c4d9d2ff",
        (730, 192, 18, 87, 6, 1363, 2007)),
    ("oltp-oracle", 2, 1): (
        "2e8e3fc9c38e71e9a16350faf95c5bd7dbc9b0023c7424e51c47e7013ac36ef1",
        (832, 257, 13, 122, 3, 1790, 2043)),
    ("dss-qry2", 1, 0): (
        "f5f5286be44d5953ea59129c7fd91000934a7522d138b7f5c9611af6ef309212",
        (925, 121, 5, 29, 2, 756, 1937)),
    ("dss-qry2", 1, 1): (
        "ffe1a4451a240eceedab12cc995d6b3b44ae8e29d497f798b6bc7c4e277956ce",
        (704, 62, 7, 21, 1, 439, 1821)),
    ("dss-qry2", 2, 0): (
        "3d22e475a66d081a1046ec5de9094106eaedf1ee00bb28ea22e7fc0bb4233d3a",
        (1148, 73, 13, 21, 1, 465, 2212)),
    ("dss-qry2", 2, 1): (
        "ef75939693ce4a81f53f4000f6df246841fd82d3019b016074ba05f9208eb9ed",
        (1159, 106, 0, 55, 1, 664, 1989)),
    ("dss-qry17", 1, 0): (
        "aa81f56b98d6724674e7388eb57cfe471d4e7417597fc6556456690578f87c7a",
        (730, 90, 20, 72, 1, 693, 1845)),
    ("dss-qry17", 1, 1): (
        "f2074c8714405c04b85df50081c5f25fb5ee4166f8f27459280dcdab15d263ac",
        (734, 97, 13, 72, 0, 683, 1834)),
    ("dss-qry17", 2, 0): (
        "70bfe7ed50a0ee11bf731097c447c496ecb040e680576327647ffb36bd8c8716",
        (1044, 131, 1, 44, 3, 811, 1817)),
    ("dss-qry17", 2, 1): (
        "33e04d36f410b674ac17f48cb1309b0dcaf6df2c7fd2649a88bab73b8aa95d58",
        (1092, 127, 2, 37, 1, 720, 1405)),
    ("web-apache", 1, 0): (
        "9af05c20bc00998fdb7ead60b80137a69e625955a44a26b67fb2f7b9b21cbaa7",
        (801, 249, 15, 260, 13, 1751, 2475)),
    ("web-apache", 1, 1): (
        "18d14907525177869ecd88961ca3a860c3995b12423ec2aba10a1b4ee942f215",
        (1005, 273, 41, 188, 7, 1842, 2406)),
    ("web-apache", 2, 0): (
        "6c9cf1412873a94826a47ffd9250ee4878078492f1d748d9e43e6d2808a048f6",
        (840, 259, 20, 239, 5, 1866, 2415)),
    ("web-apache", 2, 1): (
        "f3001ad78a3abf31cffc7fb9705e99a82586b47762a41fd55e251f38f9dfb762",
        (875, 233, 25, 135, 0, 1563, 2449)),
    ("web-zeus", 1, 0): (
        "09f708923f4f430aef4f521c09b71df3c36c89574c19b0dae866290aa239e8a7",
        (905, 334, 24, 243, 2, 2205, 2370)),
    ("web-zeus", 1, 1): (
        "cab2783543c098c6d9532f066dbf2a695cd383a1812f8ca29739f131a07535d4",
        (886, 317, 28, 280, 7, 2196, 2452)),
    ("web-zeus", 2, 0): (
        "358fb9ccda2465284f2361488b3f14db05176de3a8ad25f78540e1888fb3276e",
        (955, 262, 12, 227, 4, 1727, 2312)),
    ("web-zeus", 2, 1): (
        "62a08fee661214954a952c6fbb5a1a847cda6bfafd70047ec3c5c44fa7ebfbaa",
        (992, 263, 16, 218, 4, 1742, 2249)),
}

#: ``generate_trace("oltp-db2", 250_000, seed=42)``.
LONG_GOLDEN = (
    "bac0cf5d0aa0cc5c8878d9e81858507e3620d4d7f9ec30cad84a0392c8e7f124",
    (9392, 1477, 201, 338, 57, 10831, 25684))


def _fingerprint(trace):
    return trace.bundle.content_hash(), astuple(trace.frontend_stats)


def test_goldens_cover_every_workload():
    workloads = {workload for workload, _, _ in SHORT_GOLDENS}
    assert workloads == set(WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_short_traces_match_goldens(workload):
    for seed in (1, 2):
        for core in (0, 1):
            trace = generate_trace(workload, instructions=20_000, seed=seed,
                                   core=core)
            key = (workload, seed, core)
            assert _fingerprint(trace) == SHORT_GOLDENS[key], key


def test_long_trace_matches_golden():
    trace = generate_trace("oltp-db2", 250_000, seed=42)
    assert _fingerprint(trace) == LONG_GOLDEN
