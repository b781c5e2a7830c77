"""Tests for the cross-process verdict store (repro.eval.store) and its
Evaluator / executor / Session integration."""

import json
import pickle

import pytest

from repro.api import Session
from repro.backends import create_backend
from repro.eval import (
    CompletionEvaluation,
    Evaluator,
    SweepConfig,
    SweepExecutor,
    SweepPlanner,
    VerdictStore,
    resolve_store,
)
from repro.eval.export import evaluation_to_dict
from repro.models.base import stable_hash
from repro.problems import PromptLevel, get_problem
from repro.service import ProcessPoolSweepExecutor

SMALL = SweepConfig(
    temperatures=(0.1,),
    completions_per_prompt=(2,),
    levels=(PromptLevel.LOW,),
    problem_numbers=(1, 2),
)


def legacy_put(store, problem, completion_hash, verdict):
    """Write one verdict as the per-entry file older versions left."""
    path = store._entry_path(problem, completion_hash)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(evaluation_to_dict(verdict), handle)


class CountingEvaluator(Evaluator):
    """Evaluator that counts real compile+simulate invocations."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.uncached_calls = 0

    def _evaluate_uncached(self, problem, truncated, level):
        self.uncached_calls += 1
        return super()._evaluate_uncached(problem, truncated, level)


class TestVerdictStore:
    def test_round_trip(self, tmp_path):
        store = VerdictStore(str(tmp_path / "verdicts"))
        verdict = CompletionEvaluation(
            compiled=False, passed=False,
            compile_errors=("syntax error", "unexpected token"),
        )
        store.put(3, 12345, verdict)
        assert store.get(3, 12345) == verdict
        assert len(store) == 1

    def test_missing_key_is_none(self, tmp_path):
        store = VerdictStore(str(tmp_path))
        assert store.get(1, 999) is None

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        store = VerdictStore(str(tmp_path))
        with open(store._entry_path(1, 7), "w", encoding="utf-8") as handle:
            handle.write("{not json")
        assert store.get(1, 7) is None

    def test_vanished_directory_degrades_not_raises(self, tmp_path):
        store = VerdictStore(str(tmp_path / "gone"))
        import shutil

        shutil.rmtree(store.path)
        store.put(1, 7, CompletionEvaluation(compiled=True, passed=True))
        assert store.get(1, 7) is None
        assert len(store) == 0

    def test_clear(self, tmp_path):
        store = VerdictStore(str(tmp_path))
        for key in range(3):
            store.put(1, key, CompletionEvaluation(compiled=True, passed=True))
        assert store.clear() == 3
        assert len(store) == 0

    def test_picklable(self, tmp_path):
        store = VerdictStore(str(tmp_path))
        store.put(1, 1, CompletionEvaluation(compiled=True, passed=False))
        clone = pickle.loads(pickle.dumps(store))
        assert clone.path == store.path
        assert clone.get(1, 1) == store.get(1, 1)

    def test_resolve_store(self, tmp_path):
        assert resolve_store(None) is None
        store = VerdictStore(str(tmp_path))
        assert resolve_store(store) is store
        coerced = resolve_store(str(tmp_path))
        assert isinstance(coerced, VerdictStore)
        assert coerced.path == str(tmp_path)


class TestEvaluatorIntegration:
    def test_store_hit_skips_recompilation(self, tmp_path):
        """Acceptance: a warm store avoids compile+simulate entirely."""
        store = VerdictStore(str(tmp_path))
        problem = get_problem(1)
        completion = problem.canonical_body

        first = CountingEvaluator(store=store)
        verdict = first.evaluate(problem, completion)
        assert first.uncached_calls == 1
        assert len(store) == 1

        second = CountingEvaluator(store=store)  # fresh process stand-in
        assert second.evaluate(problem, completion) == verdict
        assert second.uncached_calls == 0
        assert second.store_hits == 1
        assert second.cache_info["store_hits"] == 1
        # now in the memory cache: third evaluation touches neither
        second.evaluate(problem, completion)
        assert second.cache_hits == 1 and second.store_hits == 1

    def test_cache_info_shape_without_store(self):
        assert "store_hits" not in Evaluator().cache_info

    def test_sweep_executors_share_store(self, tmp_path):
        backend = create_backend("zoo")
        plan = SweepPlanner(backend).plan(SMALL, models=["codegen-6b-ft"])
        store = VerdictStore(str(tmp_path))

        cold = CountingEvaluator(store=store)
        baseline = SweepExecutor(backend, evaluator=cold).run(plan)
        assert cold.uncached_calls > 0

        warm = CountingEvaluator(store=store)
        rerun = SweepExecutor(backend, evaluator=warm).run(plan)
        assert warm.uncached_calls == 0
        assert warm.store_hits == cold.uncached_calls
        assert rerun.sweep.records == baseline.sweep.records

    def test_process_pool_workers_write_the_shared_store(self, tmp_path):
        backend = create_backend("zoo")
        plan = SweepPlanner(backend).plan(SMALL, models=["codegen-6b-ft"])
        store = VerdictStore(str(tmp_path))
        result = ProcessPoolSweepExecutor(
            backend, workers=2, store=store
        ).run(plan)
        assert len(result.sweep) > 0
        assert len(store) > 0
        # a local evaluator warm-starts from what the workers persisted
        warm = CountingEvaluator(store=store)
        SweepExecutor(backend, evaluator=warm).run(plan)
        assert warm.uncached_calls == 0

    def test_store_key_matches_truncated_completion(self, tmp_path):
        # the store key is the truncated text's hash: trailing junk after
        # endmodule must not produce a second entry
        from repro.eval import truncate_completion

        store = VerdictStore(str(tmp_path))
        problem = get_problem(1)
        completion = problem.canonical_body
        evaluator = Evaluator(store=store)
        evaluator.evaluate(problem, completion)
        noisy = completion + "\n// trailing explanation prose"
        assert truncate_completion(noisy) == truncate_completion(completion)
        fresh = Evaluator(store=store)
        fresh.evaluate(problem, noisy)
        assert fresh.store_hits == 1
        assert store.get(
            problem.number, stable_hash(truncate_completion(completion))
        ) is not None


class TestSessionIntegration:
    def test_session_store_warm_start(self, tmp_path):
        path = str(tmp_path / "verdicts")
        first = Session(backend="zoo", store=path)
        baseline = first.run_sweep(SMALL, models=["codegen-6b-ft"])
        assert first.evaluator.store_hits == 0
        assert len(first.store) > 0

        second = Session(backend="zoo", store=path)
        rerun = second.run_sweep(SMALL, models=["codegen-6b-ft"])
        assert second.evaluator.store_hits > 0
        assert second.evaluator.cache_misses == 0
        assert rerun.sweep.records == baseline.sweep.records

    def test_session_attaches_store_to_existing_evaluator(self, tmp_path):
        evaluator = Evaluator()
        session = Session(
            backend="stub", evaluator=evaluator, store=str(tmp_path)
        )
        assert evaluator.store is session.store
        assert session.store.path == str(tmp_path)

    def test_session_process_executor_gets_store(self, tmp_path):
        session = Session(
            backend="zoo", executor="process", workers=2, store=str(tmp_path)
        )
        executor = session.make_executor()
        assert executor.store is session.store


class TestPackedFormat:
    """Satellite: fold the one-file-per-verdict directory into a single
    append-friendly JSONL the store reads through (inode hygiene)."""

    @staticmethod
    def _seed(store, count=6, problem=1, put=VerdictStore.put):
        verdicts = {}
        for index in range(count):
            verdict = CompletionEvaluation(
                compiled=True, passed=bool(index % 2)
            )
            put(store, problem, index, verdict)
            verdicts[index] = verdict
        return verdicts

    def test_pack_reads_through_and_drops_files(self, tmp_path):
        import os

        store = VerdictStore(str(tmp_path / "verdicts"))
        verdicts = self._seed(store, put=legacy_put)
        packed = store.pack()
        assert packed == 6
        names = os.listdir(store.path)
        assert names == ["pack.jsonl"]  # every entry file folded in
        assert len(store) == 6
        for index, verdict in verdicts.items():
            assert store.get(1, index) == verdict
        assert store.get(1, 999) is None

    def test_fresh_writes_shadow_the_pack(self, tmp_path):
        store = VerdictStore(str(tmp_path / "verdicts"))
        self._seed(store, count=3, put=legacy_put)
        store.pack()
        newer = CompletionEvaluation(compiled=False, passed=False)
        legacy_put(store, 1, 0, newer)  # individual file again: newer
        assert store.get(1, 0) == newer
        assert len(store) == 3  # same key, counted once
        assert store.pack() == 1  # folds the fresh file back in
        assert store.get(1, 0) == newer  # later pack lines win

    def test_unpack_restores_files_and_removes_pack(self, tmp_path):
        import os

        store = VerdictStore(str(tmp_path / "verdicts"))
        verdicts = self._seed(store, count=4)
        store.pack()
        restored = store.unpack()
        assert restored == 4
        assert "pack.jsonl" not in os.listdir(store.path)
        assert len(store) == 4
        for index, verdict in verdicts.items():
            assert store.get(1, index) == verdict

    def test_corrupt_pack_lines_read_as_misses(self, tmp_path):
        store = VerdictStore(str(tmp_path / "verdicts"))
        self._seed(store, count=2)
        store.pack()
        with open(store.pack_path, "a", encoding="utf-8") as handle:
            handle.write("{torn line\n")
        good = CompletionEvaluation(compiled=True, passed=True)
        store.put(2, 7, good)
        store.pack()
        assert store.get(1, 0) is not None  # pre-corruption entries fine
        assert store.get(2, 7) == good      # post-corruption appends fine

    def test_another_process_sees_a_new_pack(self, tmp_path):
        path = str(tmp_path / "verdicts")
        writer = VerdictStore(path)
        reader = VerdictStore(path)
        self._seed(writer, count=2)
        assert reader.get(1, 0) is not None  # via the entry file
        writer.pack()
        assert reader.get(1, 1) is not None  # via the (new) pack file

    def test_clear_removes_packed_entries_too(self, tmp_path):
        import os

        store = VerdictStore(str(tmp_path / "verdicts"))
        self._seed(store, count=5)
        store.pack()
        self._seed(store, count=2, problem=3)
        assert store.clear() == 7
        assert len(store) == 0
        assert os.listdir(store.path) == []

    def test_packed_store_still_pickles(self, tmp_path):
        store = VerdictStore(str(tmp_path / "verdicts"))
        self._seed(store, count=2)
        store.pack()
        clone = pickle.loads(pickle.dumps(store))
        assert clone.get(1, 1) is not None

    def test_stats_counts_both_forms(self, tmp_path):
        store = VerdictStore(str(tmp_path / "verdicts"))
        self._seed(store, count=3, put=legacy_put)
        store.pack()
        self._seed(store, count=1, problem=5, put=legacy_put)
        stats = store.stats()
        assert stats == {
            "entries": 4,
            "files": 1,
            "packed": 3,
            "pack_file": store.pack_path,
        }

    def test_evaluator_reads_through_packed_store(self, tmp_path):
        problem = get_problem(1)
        completion = problem.canonical_body
        store = VerdictStore(str(tmp_path / "verdicts"))
        warm = CountingEvaluator(store=store)
        warm.evaluate(problem, completion)
        assert warm.uncached_calls == 1
        store.pack()
        cold = CountingEvaluator(store=VerdictStore(store.path))
        cold.evaluate(problem, completion)
        assert cold.uncached_calls == 0  # verdict came from the pack
        assert cold.store_hits == 1

    def test_pack_spares_foreign_files(self, tmp_path):
        import json
        import os

        store = VerdictStore(str(tmp_path / "verdicts"))
        self._seed(store, count=2, put=legacy_put)
        foreign = os.path.join(store.path, "notes.json")
        with open(foreign, "w", encoding="utf-8") as handle:
            json.dump({"todo": "not a verdict"}, handle)
        assert store.pack() == 2  # only the real verdicts folded
        assert os.path.exists(foreign)  # foreign file left untouched
        assert "notes" not in store.keys()

    def test_unpack_keeps_pack_on_partial_failure(self, tmp_path, monkeypatch):
        import os

        store = VerdictStore(str(tmp_path / "verdicts"))
        self._seed(store, count=3)
        store.pack()
        real_replace = os.replace
        calls = {"n": 0}

        def flaky_replace(src, dst):
            calls["n"] += 1
            if calls["n"] == 2:
                raise OSError("disk full")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", flaky_replace)
        assert store.unpack() == 2  # one restore failed
        monkeypatch.undo()
        assert os.path.exists(store.pack_path)  # verdicts not lost
        assert len(store) == 3
        assert store.unpack() == 1  # second attempt finishes the job
        assert not os.path.exists(store.pack_path)


class TestPackCompaction:
    """Satellite: pack() appends forever; compact() rewrites the pack
    with one line per live key, atomically and idempotently."""

    @staticmethod
    def _pack_lines(store):
        with open(store.pack_path, encoding="utf-8") as handle:
            return [line for line in handle if line.strip()]

    def test_repeated_pack_cycles_leave_duplicates_compact_removes(
        self, tmp_path
    ):
        store = VerdictStore(str(tmp_path))
        verdicts = {
            key: CompletionEvaluation(compiled=True, passed=bool(key % 2))
            for key in range(4)
        }
        for cycle in range(3):
            for key, verdict in verdicts.items():
                store.put(1, key, verdict)
            store.pack()
        assert len(self._pack_lines(store)) == 12  # 3 cycles x 4 keys
        removed = store.compact()
        assert removed == 8
        assert len(self._pack_lines(store)) == 4
        for key, verdict in verdicts.items():
            assert store.get(1, key) == verdict
        assert store.compact() == 0  # idempotent
        assert len(store) == 4

    def test_compact_without_pack_is_noop(self, tmp_path):
        store = VerdictStore(str(tmp_path))
        assert store.compact() == 0
        store.put(1, 1, CompletionEvaluation(compiled=True, passed=True))
        assert store.compact() == 0  # files only, still no pack

    def test_compact_drops_corrupt_lines(self, tmp_path):
        store = VerdictStore(str(tmp_path))
        store.put(1, 1, CompletionEvaluation(compiled=True, passed=True))
        store.pack()
        with open(store.pack_path, "a", encoding="utf-8") as handle:
            handle.write("{torn line\n")
        assert store.compact() == 1
        assert store.get(1, 1) is not None

    def test_compact_is_atomic_no_temp_left(self, tmp_path):
        import os

        store = VerdictStore(str(tmp_path))
        for key in range(3):
            store.put(1, key, CompletionEvaluation(compiled=True, passed=True))
            store.pack()  # one pack per put -> no duplicates yet
            store.put(1, key, CompletionEvaluation(compiled=True, passed=True))
        store.pack()
        store.compact()
        assert not [n for n in os.listdir(tmp_path) if ".tmp-" in n]

    def test_cli_store_compact(self, tmp_path, capsys):
        from repro.cli import main

        store = VerdictStore(str(tmp_path))
        for _ in range(2):
            store.put(2, 9, CompletionEvaluation(compiled=True, passed=True))
            store.pack()
        code = main(["store", "compact", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "dropped 1 dead line" in out
        assert main(["store", "compact", str(tmp_path)]) == 0
        assert "dropped 0 dead line" in capsys.readouterr().out


def _verdict(index):
    # six keys in seven carry 1.5-9 KB lines, some spanning two pages
    return CompletionEvaluation(
        compiled=bool(index % 3), passed=False,
        compile_errors=(f"error {index} " + "x" * (index % 7) * 1500,),
        error_line=index,
    )


def _put_range(path, start, count, go):
    store = VerdictStore(path)
    go.wait()
    for index in range(start, start + count):
        store.put(1, index, _verdict(index))


class TestAppendLog:
    """Puts append one line each to ``pack.jsonl``; readers index byte
    offsets and only ever trust complete, well-formed, matching lines."""

    @staticmethod
    def _line(store, problem, completion_hash, verdict):
        return store._encode_line(
            store._key(problem, completion_hash),
            evaluation_to_dict(verdict),
        )

    def test_puts_append_lines_not_files(self, tmp_path):
        import os

        store = VerdictStore(str(tmp_path))
        for index in range(3):
            store.put(1, index, _verdict(index))
        assert os.listdir(store.path) == ["pack.jsonl"]
        with open(store.pack_path, encoding="utf-8") as handle:
            assert len(handle.readlines()) == 3

    def test_concurrent_writers_lose_no_line(self, tmp_path):
        import multiprocessing

        context = multiprocessing.get_context("fork")
        path = str(tmp_path / "verdicts")
        go = context.Event()
        writers = [
            context.Process(target=_put_range, args=(path, start, 500, go))
            for start in (0, 500)
        ]
        for writer in writers:
            writer.start()
        go.set()
        for writer in writers:
            writer.join(60)
        hung = [writer for writer in writers if writer.is_alive()]
        for writer in hung:
            writer.kill()
        assert not hung
        assert [writer.exitcode for writer in writers] == [0, 0]
        reader = VerdictStore(path)
        for index in range(1000):
            assert reader.get(1, index) == _verdict(index)
        with open(reader.pack_path, "rb") as handle:
            lines = handle.read().split(b"\n")
        assert lines.pop() == b""  # the log ends on a complete line
        assert len(lines) == 1000
        for line in lines:
            json.loads(line)

    def test_threads_sharing_one_store_lose_no_key(self, tmp_path):
        import sys
        import threading

        store = VerdictStore(str(tmp_path))
        wrong = []

        def work(start):
            for index in range(start, start + 150):
                store.put(1, index, _verdict(index))
                for probe in (index, index - 75):
                    got = store.get(1, probe)
                    if got is not None and got != _verdict(probe):
                        wrong.append(probe)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(start,))
                for start in range(0, 600, 150)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        # a lost index update would hide some keys from this instance
        for index in range(600):
            assert store.get(1, index) == _verdict(index)

    def test_torn_final_line_is_not_consumed(self, tmp_path):
        store = VerdictStore(str(tmp_path))
        first = _verdict(1)
        store.put(1, 1, first)
        line = self._line(store, 1, 2, _verdict(2))
        with open(store.pack_path, "ab") as handle:
            handle.write(line[:30])  # a writer still mid-line
        assert store.get(1, 2) is None
        assert store.get(1, 1) == first
        with open(store.pack_path, "ab") as handle:
            handle.write(line[30:])
        assert store.get(1, 2) == _verdict(2)  # its bytes were re-read

    def test_lines_after_a_torn_line_still_read(self, tmp_path):
        store = VerdictStore(str(tmp_path))
        torn = self._line(store, 1, 2, _verdict(2))[:30]
        with open(store.pack_path, "ab") as handle:
            handle.write(torn + b"\n")  # a crashed writer's remains
        store.put(1, 3, _verdict(3))
        assert store.get(1, 2) is None
        assert store.get(1, 3) == _verdict(3)

    def test_reader_parses_only_new_lines(self, tmp_path, monkeypatch):
        import repro.eval.store as store_module

        path = str(tmp_path)
        writer, reader = VerdictStore(path), VerdictStore(path)
        writer.put(1, 1, _verdict(1))
        assert reader.get(1, 1) == _verdict(1)
        parsed = []
        real_parse = store_module._parse_line

        def recording_parse(line, field):
            parsed.append(bytes(line))
            return real_parse(line, field)

        monkeypatch.setattr(store_module, "_parse_line", recording_parse)
        writer.put(1, 2, _verdict(2))
        writer.put(1, 3, _verdict(3))
        assert reader.get(1, 2) == _verdict(2)
        old_key = reader._key(1, 1).encode()
        assert parsed
        assert not any(old_key in line for line in parsed)
        parsed.clear()
        assert reader.get(1, 3) == _verdict(3)  # indexed on the way
        assert len(parsed) == 1  # only its hit line is decoded

    def test_live_reader_survives_another_compact(self, tmp_path):
        import os

        path = str(tmp_path)
        writer, reader, maintainer = (VerdictStore(path) for _ in range(3))
        for index in range(6):
            writer.put(1, index, _verdict(index))
            writer.put(1, index, _verdict(index))  # a duplicate line
        assert reader.get(1, 0) == _verdict(0)  # indexes the old log
        old_size = os.path.getsize(writer.pack_path)
        assert maintainer.compact() == 6
        for index in range(6):
            assert reader.get(1, index) == _verdict(index)
        # the compacted log outgrows the old one: only its new inode
        # tells the reader to start over
        for index in range(100, 112):
            writer.put(1, index, _verdict(index))
        assert os.path.getsize(writer.pack_path) > old_size
        for index in range(100, 112):
            assert reader.get(1, index) == _verdict(index)
        assert len(reader) == 18

    def test_shrunken_log_is_indexed_again(self, tmp_path):
        path = str(tmp_path)
        writer, reader = VerdictStore(path), VerdictStore(path)
        for index in range(4):
            writer.put(1, index, _verdict(index))
        assert reader.get(1, 3) == _verdict(3)
        open(writer.pack_path, "wb").close()  # truncated in place
        writer.put(1, 50, _verdict(50))
        assert reader.get(1, 50) == _verdict(50)
        assert reader.get(1, 0) is None

    def test_garbled_lines_never_yield_a_verdict(self, tmp_path):
        store = VerdictStore(str(tmp_path))
        first, second = _verdict(1), _verdict(2)
        first_line = self._line(store, 1, 1, first)
        second_line = self._line(store, 1, 2, second)
        with open(store.pack_path, "ab") as handle:
            handle.write(first_line[:25] + second_line)  # torn + glued
            handle.write(first_line.replace(b'"key"', b'"kee"'))
            handle.write(
                first_line.replace(b'"verdict": {', b'"verdict": [{')
                .replace(b'}}\n', b'}]}\n')
            )
            handle.write(b"\xff\xfe" + second_line)
        assert store.get(1, 1) is None
        assert store.get(1, 2) is None
        assert len(store) == 0

    def test_swapped_bytes_never_yield_another_keys_verdict(self, tmp_path):
        store = VerdictStore(str(tmp_path))
        # equal-length lines, so a swap keeps every offset on a boundary
        first = CompletionEvaluation(compiled=True, passed=False,
                                     error_line=1)
        second = CompletionEvaluation(compiled=True, passed=False,
                                      error_line=2)
        store.put(1, 1, first)
        store.put(1, 2, second)
        assert store.get(1, 1) == first and store.get(1, 2) == second
        first_line = self._line(store, 1, 1, first)
        second_line = self._line(store, 1, 2, second)
        assert len(first_line) == len(second_line)
        with open(store.pack_path, "r+b") as handle:
            handle.write(second_line + first_line)  # same inode and size
        assert store.get(1, 1) is None
        assert store.get(1, 2) is None


class TestClearAccounting:
    """Satellite regression: clear() must not count keys that survive a
    failed pack unlink as removed."""

    def test_clear_counts_packed_keys_once(self, tmp_path):
        store = VerdictStore(str(tmp_path))
        for key in range(3):
            store.put(1, key, CompletionEvaluation(compiled=True, passed=True))
        store.pack()
        store.put(1, 99, CompletionEvaluation(compiled=True, passed=False))
        assert store.clear() == 4
        assert len(store) == 0

    def test_failed_pack_unlink_not_counted_as_removed(
        self, tmp_path, monkeypatch
    ):
        import os

        store = VerdictStore(str(tmp_path))
        for key in range(3):
            store.put(1, key, CompletionEvaluation(compiled=True, passed=True))
        store.pack()  # all three keys now live only in the pack
        legacy_put(
            store, 1, 99, CompletionEvaluation(compiled=True, passed=False)
        )

        real_unlink = os.unlink

        def stubborn_pack(path, *args, **kwargs):
            if str(path) == store.pack_path:
                raise PermissionError("pack is read-only")
            return real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(os, "unlink", stubborn_pack)
        removed = store.clear()
        assert removed == 1  # only the un-packed file actually went away
        assert len(store) == 3  # packed verdicts still readable
        assert store.get(1, 0) is not None
