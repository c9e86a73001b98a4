"""Shared shell for the non-tables execution backends.

:class:`BackendEngine` implements the public engine surface
(``run_batch_outcomes`` and friends, ``eval_state``, ``cache_stats``,
``clear_cache``) on top of two primitives a concrete backend supplies:

``_sweep(seeds)``
    Demand and evaluate every ``(state_id, tree)`` pair reachable from
    the seeds, memoizing successes; return the failure map keyed
    ``(state_id, uid)`` with interpreter-identical errors.
``_pair_value(state_id, tree)``
    The memoized translation of one pair, or ``None``.

Unlike :class:`~repro.engine.execute.Engine`, the batch entry point here
deduplicates roots up front (``set(roots)`` runs at C speed over interned
trees) and maps outcomes back through a per-distinct-root answer table —
on forests with repeated documents the per-root axiom replay is paid per
*distinct* root only.  Outcome semantics are unchanged: per root, the
first failing axiom call site in document order wins, exactly as the
interpreter and the tables engine report it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import UndefinedTransductionError
from repro.trees.tree import Tree
from repro.transducers.rhs import StateName

from repro.engine.backends import note_batch
from repro.engine.compile import OP_CALL, OP_CONST, CompiledDTOP
from repro.engine.profile import clear_profile, new_profile, profile_snapshot

PairKey = Tuple[int, int]  # (state_id, tree uid)
Outcome = Union[Tree, UndefinedTransductionError]


class BackendEngine:
    """Template-method engine shell; see the module docstring."""

    #: Registry name of the concrete backend; appears in ``cache_stats``.
    backend = "abstract"

    __slots__ = ("compiled", "_stats", "_bare_axiom", "_profile")

    def __init__(self, compiled: CompiledDTOP):
        self.compiled = compiled
        self._stats: Dict[str, int] = {
            "hits": 0, "misses": 0, "batches": 0, "resets": 0
        }
        self._profile = new_profile(len(compiled.rule_templates))
        # Most machines have an axiom that is one bare state call on the
        # root; remember its state id so outcome assembly is a plain
        # memo lookup instead of a template replay per distinct root.
        template = compiled.axiom_template
        self._bare_axiom: Optional[int] = (
            template[0][1]
            if len(template) == 1
            and template[0][0] == OP_CALL
            and template[0][2] == 0
            else None
        )

    # -- primitives a backend must supply -------------------------------

    def _sweep(
        self, seeds: Sequence[Tuple[int, Tree]]
    ) -> Dict[PairKey, UndefinedTransductionError]:
        raise NotImplementedError

    def _pair_value(self, state_id: int, tree: Tree) -> Optional[Tree]:
        raise NotImplementedError

    def memo_size(self) -> int:
        """Number of memoized pairs (what :meth:`trim_memo` bounds)."""
        raise NotImplementedError

    def _drop_memo(self) -> None:
        raise NotImplementedError

    # -- shared machinery ------------------------------------------------

    def _note(self, hits: int, misses: int) -> None:
        stats = self._stats
        stats["batches"] += 1
        stats["hits"] += hits
        stats["misses"] += misses
        note_batch(self.backend, hits, misses)

    def _replay_template(
        self,
        template: Sequence[Tuple],
        root: Tree,
        children: Tuple[Tree, ...],
        lookup: Callable[[int, Tree], Optional[Tree]],
    ) -> Tree:
        """Operand-stack replay of one postorder template."""
        operands: List[Tree] = []
        push = operands.append
        for instruction in template:
            opcode = instruction[0]
            if opcode == OP_CONST:
                push(instruction[1])
            elif opcode == OP_CALL:
                target = (
                    children[instruction[2] - 1] if instruction[2] else root
                )
                push(lookup(instruction[1], target))
            else:  # OP_MAKE
                arity = instruction[2]
                if arity:
                    made = Tree(instruction[1], tuple(operands[-arity:]))
                    del operands[-arity:]
                else:
                    made = Tree(instruction[1], ())
                push(made)
        return operands[-1]

    def _axiom_value(self, root: Tree) -> Tree:
        return self._replay_template(
            self.compiled.axiom_template, root, root.children, self._pair_value
        )

    def _undefined(self, state_id: int, label: object) -> UndefinedTransductionError:
        return UndefinedTransductionError(
            f"no rule for state {self.compiled.state_names[state_id]!r} "
            f"on symbol {label!r}"
        )

    # -- public entry points ---------------------------------------------

    def run_batch_outcomes(self, trees: Sequence[Tree]) -> List[Outcome]:
        """Translate a forest; per-input outcome, never raises."""
        roots = list(trees)
        axiom_calls = self.compiled.axiom_calls
        distinct = set(roots)
        seeds = [
            (state_id, root)
            for root in distinct
            for state_id, _var in axiom_calls
        ]
        failed = self._sweep(seeds)
        answers: Dict[Tree, Tree] = {}
        if not failed:
            bare = self._bare_axiom
            if bare is not None:
                value_of = self._pair_value
                for root in distinct:
                    answers[root] = value_of(bare, root)
            else:
                for root in distinct:
                    answers[root] = self._axiom_value(root)
            return list(map(answers.__getitem__, roots))
        outcomes: List[Outcome] = []
        for root in roots:
            error: Optional[UndefinedTransductionError] = None
            for state_id, _var in axiom_calls:
                error = failed.get((state_id, root.uid))
                if error is not None:
                    break
            if error is not None:
                outcomes.append(error)
                continue
            value = answers.get(root)
            if value is None:
                value = answers[root] = self._axiom_value(root)
            outcomes.append(value)
        return outcomes

    def run_batch(self, trees: Sequence[Tree]) -> List[Tree]:
        """Translate a forest; all-or-nothing (first error in input order)."""
        outcomes = self.run_batch_outcomes(trees)
        for outcome in outcomes:
            if isinstance(outcome, UndefinedTransductionError):
                raise outcome
        return outcomes  # type: ignore[return-value]

    def try_run_batch(self, trees: Sequence[Tree]) -> List[Optional[Tree]]:
        """Like :meth:`run_batch` but ``None`` marks undefined inputs."""
        return [
            None if isinstance(outcome, UndefinedTransductionError) else outcome
            for outcome in self.run_batch_outcomes(trees)
        ]

    def run(self, tree: Tree) -> Tree:
        """``[[M]](s)`` without recursion; raises when undefined."""
        return self.run_batch([tree])[0]

    def try_run(self, tree: Tree) -> Optional[Tree]:
        """``[[M]](s)`` or ``None`` when outside the domain."""
        return self.try_run_batch([tree])[0]

    def eval_state(self, state: StateName, tree: Tree) -> Tree:
        """``[[M]]_q(s)`` iteratively — drop-in for :meth:`DTOP.eval_state`."""
        state_id = self.compiled.state_ids.get(state)
        if state_id is None:
            raise UndefinedTransductionError(
                f"no rule for state {state!r} on symbol {tree.label!r}"
            )
        cached = self._pair_value(state_id, tree)
        if cached is not None:
            self._stats["hits"] += 1
            return cached
        failed = self._sweep([(state_id, tree)])
        error = failed.get((state_id, tree.uid))
        if error is not None:
            raise error
        return self._pair_value(state_id, tree)

    # -- cache management -------------------------------------------------

    @property
    def cache_stats(self) -> Dict[str, object]:
        """Counters plus the serving backend's registry name."""
        return {
            **self._stats,
            "entries": self.memo_size(),
            "backend": self.backend,
        }

    def trim_memo(self, limit: int) -> bool:
        """Drop the pair memo if it holds more than ``limit`` pairs.

        Same contract as :meth:`repro.engine.execute.Engine.trim_memo`:
        counts one ``resets``, leaves every other counter alone, and
        returns whether it dropped.
        """
        if self.memo_size() <= limit:
            return False
        self._drop_memo()
        self._stats["resets"] += 1
        return True

    def clear_cache(self) -> None:
        """Drop the persistent pair memo and zero the counters."""
        self._drop_memo()
        for counter in self._stats:
            self._stats[counter] = 0

    # -- profiling --------------------------------------------------------

    def profile_snapshot(self) -> Dict[str, object]:
        """Per-rule evaluation counts (and sweep timings where kept).

        See :func:`repro.engine.profile.profile_snapshot`; counters
        accumulate across batches until :meth:`clear_profile`.
        """
        return profile_snapshot(self.compiled, self.backend, self._profile)

    def clear_profile(self) -> None:
        """Zero the profiler (the memo and cache stats are untouched)."""
        clear_profile(self._profile)
