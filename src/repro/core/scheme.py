"""Algorithms and schemes, as the paper defines them.

A broadcast algorithm ``A`` using an oracle is a function that, for each
node, maps the quadruple ``(f(v), s(v), id(v), deg(v))`` to a *scheme*
``S_v`` — a prescription of what to send given the history so far
(Section 1.4).  A wakeup algorithm is the same thing constrained to stay
silent on message-free histories at non-source nodes.

:class:`Algorithm` is the quadruple-to-scheme factory; the scheme it returns
is a :class:`repro.simulator.Process` (``on_init`` = the empty history,
``on_receive`` = each subsequent history extension).  :class:`History` is the
explicit history object for code that wants the paper's functional view —
:class:`FunctionalScheme` adapts a pure function ``history -> sends`` into a
process by replaying.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Hashable, List, Optional, Sequence, Tuple

from ..encoding import BitString
from ..simulator.messages import Payload, SendRequest
from ..simulator.node import NodeContext, Process

__all__ = ["History", "Algorithm", "FunctionalScheme", "FunctionalAlgorithm"]


@dataclass(frozen=True)
class History:
    """The paper's history at a node:
    ``(f(v), s(v), id(v), deg(v), (m_1, p_1), ..., (m_k, p_k))``."""

    advice: BitString
    is_source: bool
    node_id: Optional[Hashable]
    degree: int
    received: Tuple[Tuple[Payload, int], ...] = ()

    def extended(self, payload: Payload, port: int) -> "History":
        """The history after additionally receiving ``payload`` on ``port``."""
        return History(
            advice=self.advice,
            is_source=self.is_source,
            node_id=self.node_id,
            degree=self.degree,
            received=self.received + ((payload, port),),
        )

    @property
    def empty(self) -> bool:
        """True when no message has been received yet."""
        return not self.received


class Algorithm(abc.ABC):
    """A broadcast/wakeup algorithm: quadruple in, scheme out.

    Subclasses implement :meth:`scheme_for`.  The algorithm must not peek at
    the network — only the oracle does that; this separation is what makes
    oracle size a meaningful measure.
    """

    #: Whether the schemes produced satisfy the wakeup constraint.  Purely
    #: declarative — the engine enforces the constraint at run time.
    is_wakeup_algorithm: bool = False

    #: Whether the schemes produced never read ``id(v)`` — i.e. the algorithm
    #: works unchanged when the engine hands every node ``node_id=None``.
    #: Declarative, like :attr:`is_wakeup_algorithm`; the static linter
    #: (:mod:`repro.lint`, rule MDL002) cross-checks the claim against the
    #: code, and experiment E7 checks it dynamically.
    anonymous_safe: bool = False

    @abc.abstractmethod
    def scheme_for(
        self,
        advice: BitString,
        is_source: bool,
        node_id: Optional[Hashable],
        degree: int,
    ) -> Process:
        """Return the scheme ``S_v = A(f(v), s(v), id(v), deg(v))``."""

    @property
    def name(self) -> str:
        """Human-readable name used in experiment tables."""
        return type(self).__name__


SchemeFunction = Callable[[History], Sequence[SendRequest]]


class FunctionalScheme:
    """Adapter: a pure function ``history -> sends`` as a runnable process.

    This is the paper's scheme notion taken literally.  The adapter keeps the
    growing history and calls the function after initialization and after
    every received message, queuing whatever it returns.  Determinism and
    history-dependence are therefore guaranteed by construction.
    """

    def __init__(self, function: SchemeFunction) -> None:
        self._function = function
        self._history: Optional[History] = None

    def on_init(self, ctx: NodeContext) -> None:
        self._history = History(
            advice=ctx.advice,
            is_source=ctx.is_source,
            node_id=ctx.node_id,
            degree=ctx.degree,
        )
        self._emit(ctx)

    def on_receive(self, ctx: NodeContext, payload: Payload, port: int) -> None:
        assert self._history is not None, "on_receive before on_init"
        self._history = self._history.extended(payload, port)
        self._emit(ctx)

    def _emit(self, ctx: NodeContext) -> None:
        for request in self._function(self._history):
            ctx.send(request.payload, request.port)


class FunctionalAlgorithm(Algorithm):
    """An algorithm defined by a pure function of the history.

    ``factory`` receives the quadruple and returns the history function.  The
    common case — one global history function — is ``FunctionalAlgorithm(
    lambda adv, src, nid, deg: my_history_function)``.
    """

    def __init__(
        self,
        factory: Callable[[BitString, bool, Optional[Hashable], int], SchemeFunction],
        wakeup: bool = False,
        name: Optional[str] = None,
    ) -> None:
        self._factory = factory
        self.is_wakeup_algorithm = wakeup
        self._name = name

    def scheme_for(self, advice, is_source, node_id, degree) -> Process:
        return FunctionalScheme(self._factory(advice, is_source, node_id, degree))

    @property
    def name(self) -> str:
        return self._name or type(self).__name__


def sends(*pairs: Tuple[Payload, int]) -> List[SendRequest]:
    """Convenience for history functions: ``sends(("M", 0), ("M", 2))``."""
    return [SendRequest(payload, port) for payload, port in pairs]


__all__.append("sends")
