"""Fetchers that share one replica store take turns per archive."""

import threading

from repro.trace.replicate import TraceExport
from repro.trace.store import TraceStore
from tests.trace.test_replicate import KEY, make_fetcher, serving, warm_store


def test_fetchers_sharing_a_store_transfer_each_archive_once(tmp_path):
    """Two workers of a local fleet miss the same archive at once: one
    transfers it while the other waits and then finds it admitted, so
    the partial file is never appended to by both (which corrupted the
    transfer and quarantined the task)."""
    store, path = warm_store(tmp_path)
    replica = TraceStore(tmp_path / "replica")
    outcomes = []
    with serving(TraceExport(store.root)) as url:
        fetchers = [make_fetcher(url, worker_id=f"w{index}", chunk_bytes=64)
                    for index in range(2)]
        start = threading.Barrier(len(fetchers))

        def fetch(fetcher):
            start.wait(timeout=10)
            outcomes.append(fetcher.fetch(KEY, replica))

        threads = [threading.Thread(target=fetch, args=(fetcher,))
                   for fetcher in fetchers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    assert outcomes == [True, True]
    assert sorted(fetcher.fetched for fetcher in fetchers) == [0, 1]
    assert (replica.root / path.name).read_bytes() == path.read_bytes()
