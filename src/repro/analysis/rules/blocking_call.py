"""RL007: blocking socket/queue calls in ``serve/`` must carry a deadline.

The fault-tolerance contract of the serving stack is "the stream completes
with known loss under any single fault — it never wedges".  Every unbounded
blocking primitive is a wedge waiting for its fault: an ``accept()`` with no
timeout waits forever for a front-end that died, a ``Queue.get()`` with no
deadline outlives the peer that would have fed it, a bare ``Event.wait()``
survives the worker that was supposed to set it.  The fault matrix (wedged
and SIGKILLed shard workers) is only survivable because every wait in
``src/repro/serve/`` is bounded.

Flagged (calls with neither a timeout argument nor a deadline):

* ``.accept()`` / ``.recv()`` / ``.recv_into()`` / ``.recvfrom()`` — socket
  reads (bounded via ``settimeout`` driven by a deadline);
* ``.get()`` / ``.put()`` on a queue-named receiver without ``timeout=`` —
  bounded queues wedge on dead peers (``get_nowait``/``put_nowait`` and
  ``block=False`` are fine);
* zero-argument ``.join()`` on a thread/process/worker-named receiver;
* zero-argument ``.wait()`` (an :class:`threading.Event` that may never be
  set by a failed worker);
* ``select.select()`` with exactly three arguments (no timeout);
* ``socket.create_connection()`` without ``timeout=``.

Exempt: calls inside a function whose docstring mentions ``deadline`` — the
documented convention for helpers that arm ``settimeout`` from a monotonic
deadline themselves, mirroring RL001's ``caller-locked`` docstring markers.  A justified exception carries
``# clap-lint: allow[RL007] reason=...`` as usual.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import PurePosixPath

from repro.analysis.core import Finding, ModuleContext, Rule, register
from repro.analysis.rules.common import (
    AnchorFactory,
    call_keyword,
    dotted_name,
    under_directory,
)

#: A function whose docstring mentions one of these implements (or documents)
#: its own deadline handling; calls inside it are exempt.
DEADLINE_MARKERS = ("deadline",)

#: Socket methods that block unbounded unless a timeout is armed.
SOCKET_METHODS = frozenset({"accept", "recv", "recv_into", "recvfrom"})

#: Receiver-name fragments marking a joinable worker handle.
JOINABLE_HINTS = ("thread", "process", "proc", "worker")


def _receiver_name(node: ast.expr) -> str:
    """Terminal name of the call receiver: ``shard.queue.put`` -> ``queue``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _has_deadline_docstring(func: ast.AST | None) -> bool:
    if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    lowered = (ast.get_docstring(func) or "").lower()
    return any(marker in lowered for marker in DEADLINE_MARKERS)


def _has_timeout(call: ast.Call) -> bool:
    return call_keyword(call, "timeout") is not None


def _is_nonblocking(call: ast.Call) -> bool:
    block = call_keyword(call, "block")
    return isinstance(block, ast.Constant) and block.value is False


class _EnclosingFunctions:
    """Map every AST node to its innermost enclosing function definition."""

    def __init__(self, tree: ast.Module) -> None:
        self._owner: dict[int, ast.AST | None] = {}

        def visit(node: ast.AST, owner: ast.AST | None) -> None:
            for child in ast.iter_child_nodes(node):
                child_owner = owner
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    child_owner = child
                self._owner[id(child)] = child_owner
                visit(child, child_owner)

        visit(tree, None)

    def of(self, node: ast.AST) -> ast.AST | None:
        return self._owner.get(id(node))


@register
class BlockingCallRule(Rule):
    """Flag unbounded blocking socket/queue/join/wait calls in serve/."""

    id = "RL007"
    title = "blocking-call-no-deadline"
    description = (
        "serve/ must not call blocking socket/queue primitives without a "
        "timeout or deadline — unbounded waits wedge the stream under faults."
    )

    def applies_to(self, path: PurePosixPath) -> bool:
        return under_directory(path, "serve")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        anchors = AnchorFactory(module.tree)
        enclosing = _EnclosingFunctions(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            diagnosis = _diagnose(node)
            if diagnosis is None:
                continue
            if _has_deadline_docstring(enclosing.of(node)):
                continue
            base, message = diagnosis
            yield module.finding(
                self.id,
                node.lineno,
                message,
                anchor=anchors.make(node, base),
            )


def _diagnose(call: ast.Call) -> tuple[str, str] | None:
    """``(anchor_base, message)`` when ``call`` blocks without a deadline."""
    func = call.func
    full_name = dotted_name(func) or ""
    terminal = full_name.rsplit(".", 1)[-1]
    if terminal == "select" and full_name.endswith("select.select"):
        if len(call.args) == 3 and not call.keywords:
            return (
                "select-no-timeout",
                "select.select() without a timeout blocks until a peer "
                "speaks; pass a timeout so dead peers are detected",
            )
        return None
    if terminal == "create_connection":
        if not _has_timeout(call):
            return (
                "connect-no-timeout",
                "socket.create_connection() without timeout= can hang on an "
                "unreachable endpoint; bound the connect",
            )
        return None
    if not isinstance(func, ast.Attribute):
        return None
    receiver = _receiver_name(func.value).lower()
    if terminal in SOCKET_METHODS:
        return (
            f"socket-{terminal}",
            f".{terminal}() blocks unbounded unless a timeout is armed; arm "
            "sock.settimeout() from a deadline (and document it) or justify "
            "with clap-lint allow",
        )
    if terminal in ("get", "put") and "queue" in receiver:
        if _has_timeout(call) or _is_nonblocking(call):
            return None
        # queue.get(block, timeout) / queue.put(item, block, timeout): a
        # timeout passed positionally also bounds the wait.
        if terminal == "get" and len(call.args) >= 2:
            return None
        if terminal == "put" and len(call.args) >= 3:
            return None
        return (
            f"queue-{terminal}",
            f"Queue.{terminal}() without timeout= wedges on a dead peer; "
            "chop the wait into timeouts with a liveness check between them",
        )
    if terminal == "join" and any(hint in receiver for hint in JOINABLE_HINTS):
        if call.args or _has_timeout(call):
            return None
        return (
            "join-no-timeout",
            ".join() without a timeout waits forever on a wedged "
            "worker; loop a bounded join with an is_alive() check",
        )
    if terminal == "wait":
        if call.args or _has_timeout(call):
            return None
        return (
            "wait-no-timeout",
            ".wait() without a timeout outlives the worker that was to set "
            "it; loop a bounded wait with a failure check",
        )
    return None
