"""HeatStore's array-backed insertion order against a dict model.

The dict-era heat books were ``dict[vpn, float]`` per pid, and their
iteration order is observable downstream (promotion-queue means, the
TPP shuffle).  Random operation sequences run against both; after every
step the store's order and values must equal the model's, and every
order view handed out earlier must still read what it read then.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.profiling.heat_store import HeatStore

PIDS = (3, 8)
FLOOR = 0.05  # high enough that decay compaction drops entries often


class DictModel:
    def __init__(self) -> None:
        self.books: dict[int, dict[int, float]] = {}

    def accumulate(self, pid, vpns, sums):
        book = self.books.setdefault(pid, {})
        for vpn, w in zip(vpns.tolist(), sums.tolist()):
            book[vpn] = book.get(vpn, 0.0) + w

    def add_scaled(self, pid, vpns, heats, scale):
        book = self.books.setdefault(pid, {})
        for vpn, h in zip(vpns.tolist(), heats.tolist()):
            book[vpn] = book.get(vpn, 0.0) + h * scale

    def decay_all(self, decay, floor):
        for book in self.books.values():
            for vpn in list(book):
                book[vpn] *= decay
                if book[vpn] < floor:
                    del book[vpn]

    def adopt_copy(self, pid, src: "DictModel"):
        if pid in src.books:
            self.books[pid] = dict(src.books[pid])
        else:
            self.books.pop(pid, None)

    def forget(self, pid):
        self.books.pop(pid, None)


def check(store: HeatStore, model: DictModel) -> None:
    store.check_consistency()
    for pid in set(store.pids()) | set(model.books):
        want = model.books.get(pid, {})
        assert store.ordered_vpns(pid).tolist() == list(want)
        assert list(store.as_dict(pid).items()) == list(want.items())


def random_vpns(rng, lo, span, k):
    return lo + rng.choice(span, size=min(k, span), replace=False).astype(np.int64)


@pytest.mark.parametrize("seed", range(6))
def test_order_matches_dict_model_over_random_sequences(seed):
    rng = np.random.default_rng(seed)
    stores = (HeatStore(), HeatStore())
    models = (DictModel(), DictModel())
    held: list[tuple[np.ndarray, np.ndarray]] = []
    for _ in range(120):
        side = int(rng.integers(2))
        store, model = stores[side], models[side]
        pid = PIDS[int(rng.integers(len(PIDS)))]
        op = rng.choice(["accumulate", "add_scaled", "decay", "copy", "forget", "hold"],
                        p=[0.35, 0.25, 0.2, 0.08, 0.04, 0.08])
        lo = 1000 * pid + int(rng.integers(-50, 50))
        if op == "accumulate":
            vpns = np.sort(random_vpns(rng, lo, 300, int(rng.integers(1, 40))))
            sums = rng.random(vpns.size) * rng.choice([0.2, 3.0])
            store.accumulate(pid, vpns, sums)
            model.accumulate(pid, vpns, sums)
        elif op == "add_scaled":
            vpns = random_vpns(rng, lo, 300, int(rng.integers(1, 40)))  # any order
            heats = rng.random(vpns.size)
            store.add_scaled(pid, vpns, heats, 8.0)
            model.add_scaled(pid, vpns, heats, 8.0)
        elif op == "decay":
            store.decay_all(0.5, FLOOR)
            model.decay_all(0.5, FLOOR)
        elif op == "copy":
            stores[1 - side].adopt_copy(pid, store)
            models[1 - side].adopt_copy(pid, model)
        elif op == "forget":
            store.forget(pid)
            model.forget(pid)
        else:
            view = store.ordered_vpns(pid)
            held.append((view, view.copy()))
        for store_, model_ in zip(stores, models):
            check(store_, model_)
        for view, was in held:
            np.testing.assert_array_equal(view, was)


def test_view_survives_appends_within_capacity_and_growth():
    store = HeatStore()
    store.accumulate(1, np.arange(10, 20, dtype=np.int64), np.ones(10))
    store.decay_all(0.5, 0.4)  # nothing drops; the order keeps its array
    view = store.ordered_vpns(1)
    was = view.copy()
    ph = store._pids[1]
    for start in (100, 200, 300, 400):  # fills spare capacity, then grows
        store.accumulate(1, np.arange(start, start + 7, dtype=np.int64), np.ones(7))
        np.testing.assert_array_equal(view, was)
    assert ph.order.size >= ph.n_order == 38
    copied = HeatStore()
    copied.adopt_copy(1, store)
    copied.add_scaled(1, np.array([5, 10], dtype=np.int64), np.ones(2), 1.0)
    assert store.ordered_vpns(1).tolist()[-1] == 406  # the source is untouched
    assert copied.ordered_vpns(1).tolist()[-1] == 5
