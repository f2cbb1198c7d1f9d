"""Compile a traced :class:`~repro.infer.trace.Graph` into a flat numpy plan.

Every step runs a kernel of the op table (:mod:`repro.autograd.table`):
exact plans run the table unchanged, fast plans the table with the fast
conv route and the BatchNorm fold kernels over it (:data:`KERNELS`).

A plan runs at any row count: every runtime kernel reads its row count
from its input, and a traced ``reshape`` that keeps its leading dimension
records it as ``-1``.  The engine checks at compile time that a graph
bakes in no other trace-time row count.

Compilation passes, in order:

1. **BatchNorm rewrite** — every eval-mode ``batch_norm`` node either folds
   into the producing ``conv2d``/``linear`` (when it is that node's only
   consumer) or lowers to a per-channel affine ``x * scale + shift``; the
   fold constants are computed in float64 and cast back once, keeping the
   plan within the 1e-5 logit-parity budget.
2. **Constant classification** — a node is constant iff none of its
   ancestors is the input.  The entire masked-weight subgraph
   (``weight * mask``) is constant, so densified weights are computed once
   at refresh time instead of on every forward.
3. **Dead-code elimination + scheduling** — a topological walk from the
   output keeps only live nodes, and the shared scheduler
   (:func:`_schedule`, also used by :class:`~repro.infer.grad.GradPlan`)
   orders the runtime steps, attaches a free list to each step so
   intermediate activations are dropped at their last use, and marks
   in-place candidates; :func:`_run_steps` is the one loop that runs them.
4. **Live width** (fast plans only) — :func:`_live_width_walks` pairs each
   constant-weight conv with the conv that produces its input, across
   single-consumer channel-wise ops; at every refresh the conv reads only
   the input channels its densified weight uses, and that producer
   computes only those channels (:meth:`CompiledPlan._narrow`).

:meth:`CompiledPlan.refresh` re-resolves ``param``/``buffer`` leaves *by
name* from the live model (``load_state_dict`` and ``set_buffer`` rebind
the underlying arrays, so identity capture would go stale), re-evaluates
every constant node, reapplies the live-width pass and then keeps only
the constant slots a runtime step reads.  The engine calls it whenever
the model's state signature changes.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import table
from repro.infer.trace import _LEAF_OPS, Graph, Node
from repro.nn.module import Module


class CompileError(RuntimeError):
    """The traced graph cannot be lowered to a runtime plan."""


# ------------------------------------------------------------ runtime kernels
# Fast overrides of op-table kernels: each takes (args, params) like the
# table's and computes the same op within the plan's parity budget.


def _k_conv2d(args, params):
    """Convolution over a pad-once *channel-first* scratch, by one of two
    routes (:func:`_conv_per_offset` picks):

    - per offset: one GEMM per kernel offset over the whole flat padded
      map, accumulated through shifted views — no gather copies, at the
      cost of ~(hp·wp)/(oh·ow) extra FLOPs on the padded border;
    - im2col: one strided ``(c, kh, kw, n, oh, ow)`` view of the scratch,
      copied by one reshape, is the ``(c·kh·kw, n·oh·ow)`` matrix for one
      GEMM (a 1×1 stride-1 conv's is the scratch itself).

    The padded input persists across runs, one per row count
    (``params["_scratch"][n]``, border zeroed once), so alternating row
    counts never reallocate; a gradient plan's weight gradient reads it
    back.  The im2col matrix is allocated per call: kept resident it would
    cost ``kh·kw`` times the scratch in every conv.  ``params["gather"]``,
    set by the live-width pass, selects the input channels the weight reads.
    Every ordering stays within the fold-rounding parity budget; the
    compile self-check validates whichever route a shape takes.
    """
    x, w = args[0], args[1]
    gather = params.get("gather")
    if gather is not None:
        x = x[:, gather]
    f, c, kh, kw = w.shape
    n, _, h, wi = x.shape
    stride, padding = params["stride"], params["padding"]
    hp, wp = h + 2 * padding, wi + 2 * padding
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    xp, tbuf = _conv_scratch(params, w.shape, n, hp, wp, x.dtype)
    xp[:, :, padding : padding + h, padding : padding + wi] = x.transpose(1, 0, 2, 3)
    if tbuf is not None:
        # The accumulator is NOT reused: it leaves the kernel as the
        # node's output and may be returned to the caller.
        flat = xp.reshape(c, n * hp * wp)
        out = np.zeros((f, n, oh, ow), dtype=x.dtype)
        for dy in range(kh):
            for dx in range(kw):
                np.matmul(w[:, :, dy, dx], flat, out=tbuf)
                out += tbuf.reshape(f, n, hp, wp)[:, :, dy : dy + oh, dx : dx + ow]
    else:
        if kh * kw == 1:
            taps = xp[:, :, ::stride, ::stride]
        else:
            sc, sn, sy, sx = xp.strides
            taps = np.ndarray(
                (c, kh, kw, n, oh, ow), xp.dtype, xp, 0,
                (sc, sy, sx, sn, stride * sy, stride * sx),
            )
        cols = taps.reshape(c * kh * kw, n * oh * ow)
        out = (w.reshape(f, c * kh * kw) @ cols).reshape(f, n, oh, ow)
    if len(args) == 3:
        out += args[2].reshape(f, 1, 1, 1)
    return out.transpose(1, 0, 2, 3)


def _conv_scratch(params, wshape, n, hp, wp, dtype):
    """``(padded input, per-offset GEMM buffer or None)`` of a
    :func:`_k_conv2d` conv at ``n`` rows, kept in ``params`` per row count
    and reallocated only when the conv's widths change: the padded input
    has the weight's input channels; the GEMM buffer, its output channels,
    and it exists only while the conv takes the per-offset route."""
    f, c, kh, kw = wshape
    stride = params["stride"]
    oh, ow = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    padded = params.setdefault("_scratch", {})
    xp = padded.get(n)
    if xp is None or xp.shape != (c, n, hp, wp) or xp.dtype != dtype:
        xp = padded[n] = np.zeros((c, n, hp, wp), dtype=dtype)
    accs = params.setdefault("_scratch_t", {})
    cols_bytes = c * kh * kw * n * oh * ow * xp.itemsize
    if not _conv_per_offset(c, f, hp * wp, oh * ow, stride, kh * kw, cols_bytes):
        accs.pop(n, None)
        return xp, None
    tbuf = accs.get(n)
    if tbuf is None or tbuf.shape != (f, n * hp * wp) or tbuf.dtype != dtype:
        tbuf = accs[n] = np.empty((f, n * hp * wp), dtype=dtype)
    return xp, tbuf


# glibc serves larger blocks with a fresh mmap on every call (its dynamic
# mmap threshold tops out here on 64-bit hosts), and an im2col matrix that
# must be page-faulted in on every call loses to the per-offset GEMMs.
_IM2COL_MAX_BYTES = 32 * 2**20


def _conv_per_offset(c, f, padded_px, out_px, stride, taps, cols_bytes):
    """Route rule of :func:`_k_conv2d`, a function of the conv's shape only:
    True picks the per-offset GEMMs, False the one im2col GEMM.

    Per offset, the GEMMs write ``f·hp·wp`` values per image; im2col
    copies ``c·oh·ow`` per image.  Both are multiplied by ``kh·kw``, and
    the route writing less wins, unless the im2col matrix would outgrow
    :data:`_IM2COL_MAX_BYTES`.  Strided and 1×1 convs always take im2col:
    per offset they would compute the whole padded map.  Measured over 3×3
    stride-1 convs with c, f in 2..64, maps 2×2 to 16×16 and 32 or 64 rows
    (DESIGN.md §10), this rule takes 0.5% more time in total than always
    picking the faster route; either route alone takes 51–62% more.
    """
    return (
        stride == 1
        and taps > 1
        and (c * out_px > f * padded_px or cols_bytes > _IM2COL_MAX_BYTES)
    )


# BatchNorm fold constants.  Computed in float64 and cast back to the host
# dtype once, so the folded path stays within the logit-parity budget even
# for ill-conditioned running statistics.


def _k_bn_scale(args, params):
    gamma, var = args
    return np.asarray(gamma, dtype=np.float64) / np.sqrt(
        np.asarray(var, dtype=np.float64) + params["eps"]
    )


def _k_bn_fold_weight(args, params):
    w, scale = args
    expand = (slice(None),) + (None,) * (w.ndim - 1)
    return (np.asarray(w, dtype=np.float64) * scale[expand]).astype(w.dtype)


def _k_bn_fold_bias(args, params):
    beta, mean, scale = args[0], args[1], args[2]
    bias = args[3] if len(args) == 4 else 0.0
    folded = np.asarray(beta, dtype=np.float64) + (
        np.asarray(bias, dtype=np.float64) - np.asarray(mean, dtype=np.float64)
    ) * scale
    return folded.astype(np.asarray(beta).dtype)


def _k_bn_affine_scale(args, params):
    return args[0].astype(np.float32).reshape(params["shape"])


def _k_bn_affine_shift(args, params):
    beta, mean, scale = args
    shift = np.asarray(beta, dtype=np.float64) - np.asarray(mean, dtype=np.float64) * scale
    return shift.astype(np.float32).reshape(params["shape"])


def _k_bn_affine(args, params):
    x, scale, shift = args
    return x * scale + shift


# The fast eval table: the op table with the fast conv route and the
# BatchNorm fold kernels.  Exact plans run ``table.KERNELS`` unchanged.
KERNELS = {
    **table.KERNELS,
    "conv2d": _k_conv2d,
    "bn_scale": _k_bn_scale,
    "bn_fold_weight": _k_bn_fold_weight,
    "bn_fold_bias": _k_bn_fold_bias,
    "bn_affine_scale": _k_bn_affine_scale,
    "bn_affine_shift": _k_bn_affine_shift,
    "bn_affine": _k_bn_affine,
}


# ------------------------------------------------------------ shared scheduler
# Both plan kinds (this module's eval plans and ``grad.GradPlan``) lower a
# node list to the same flat step list and run it through the same loop.

# Ops whose runtime kernel may return a view of an input (or of a tuple
# element); neither these slots nor their inputs may ever be overwritten by
# an in-place rewrite.
_VIEW_OPS = frozenset(
    {"reshape", "transpose", "getitem", "tuple_get", "slice_axis", "unpad2d"}
)

# Elementwise ops that may overwrite a dying input buffer, mapped to the
# in-place form :func:`_run_steps` executes.
_INPLACE_OPS = {"relu": "relu", "add": "add", "add_acc": "add"}


def _toposort(nodes: list[Node], roots: list[int]) -> list[int]:
    """Live node indices in dependency order (iterative post-order DFS,
    one walk per root, sharing the visited set)."""
    order: list[int] = []
    seen: set[int] = set()
    for root in roots:
        stack: list[tuple[int, bool]] = [(root, False)]
        while stack:
            index, done = stack.pop()
            if done:
                order.append(index)
                continue
            if index in seen:
                continue
            seen.add(index)
            stack.append((index, True))
            for j in nodes[index].inputs:
                if j not in seen:
                    stack.append((j, False))
    return order


def _schedule(
    nodes: list[Node], steps: list[int], keep: set[int], table: dict, inplace: bool
) -> list[tuple]:
    """Lower the node indices ``steps`` (in run order) to step tuples
    ``(kernel, inputs, out, params, frees, iop, ipos)``.

    ``frees`` drops each step-produced value right after the step that
    consumes it last, except the ``keep`` values the caller reads back.
    With ``inplace``, an elementwise op may overwrite (``iop``) the input
    at position ``ipos`` when that input dies at this very step and no
    view can alias its buffer.
    """
    step_set = set(steps)
    last_use: dict[int, int] = {}
    for i in steps:
        for j in nodes[i].inputs:
            if j in step_set:
                last_use[j] = i
    frees_at: dict[int, list[int]] = {}
    for value, step in last_use.items():
        if value not in keep:
            frees_at.setdefault(step, []).append(value)
    aliased: set[int] = set()
    for i in steps:
        if nodes[i].op in _VIEW_OPS:
            aliased.add(i)
            aliased.update(nodes[i].inputs)
    schedule = []
    for i in steps:
        node = nodes[i]
        kernel = table.get(node.op)
        if kernel is None:
            raise CompileError(f"no runtime kernel for op {node.op!r}")
        frees = tuple(frees_at.get(i, ()))
        ipos = None
        if inplace and node.op in _INPLACE_OPS:
            ipos = next(
                (p for p, j in enumerate(node.inputs) if j in frees and j not in aliased),
                None,
            )
        iop = None if ipos is None else _INPLACE_OPS[node.op]
        schedule.append((kernel, node.inputs, i, node.params, frees, iop, ipos))
    return schedule


def _run_steps(slots: list, steps: list[tuple]) -> None:
    """Stream a :func:`_schedule` step list through the slot table."""
    for kernel, inputs, out_index, params, frees, iop, ipos in steps:
        args = [slots[j] for j in inputs]
        if iop == "relu":
            out = np.maximum(args[0], 0.0, out=args[0])
        elif (
            iop == "add"
            and isinstance(args[0], np.ndarray)
            and isinstance(args[1], np.ndarray)
            and args[0].shape == args[1].shape
            and args[0].dtype == args[1].dtype
        ):
            out = np.add(args[0], args[1], out=args[ipos])
        else:
            out = kernel(args, params)
        slots[out_index] = out
        for j in frees:
            slots[j] = None


# ----------------------------------------------------------- compile passes


def _runtime_flags(nodes: list[Node], input_index: int) -> list[bool]:
    """``runtime[i]`` — node i (transitively) depends on the input."""
    runtime = [False] * len(nodes)
    for i, node in enumerate(nodes):
        if i == input_index:
            runtime[i] = True
        elif node.op not in _LEAF_OPS:
            runtime[i] = any(runtime[j] for j in node.inputs)
    return runtime


def _rewrite_batch_norm(graph: Graph) -> tuple[list[Node], int]:
    """Lower every ``batch_norm`` node; returns (nodes, n_folded).

    Folding requires the normalized conv/linear output to have no other
    consumer (a residual tap must still see the *unnormalized* value).
    New constant nodes are appended at the end; downstream passes order
    nodes topologically, not by index.
    """
    nodes = [Node(n.op, n.inputs, dict(n.params)) for n in graph.nodes]
    runtime = _runtime_flags(nodes, graph.input)
    consumers: dict[int, int] = {}
    for node in nodes:
        for j in node.inputs:
            consumers[j] = consumers.get(j, 0) + 1
    consumers[graph.output] = consumers.get(graph.output, 0) + 1

    def append(node: Node) -> int:
        nodes.append(node)
        return len(nodes) - 1

    n_folded = 0
    for i in range(len(graph.nodes)):
        node = nodes[i]
        if node.op != "batch_norm":
            continue
        xi, gi, bi, mi, vi = node.inputs
        producer = nodes[xi]
        scale = append(Node("bn_scale", (gi, vi), {"eps": node.params["eps"]}))
        can_fold = (
            producer.op in ("conv2d", "linear")
            and consumers.get(xi, 0) == 1
            and runtime[xi]
        )
        if can_fold:
            folded_w = append(Node("bn_fold_weight", (producer.inputs[1], scale)))
            bias_in = (bi, mi, scale) + producer.inputs[2:3]
            folded_b = append(Node("bn_fold_bias", bias_in))
            nodes[i] = Node(
                producer.op,
                (producer.inputs[0], folded_w, folded_b),
                dict(producer.params),
            )
            n_folded += 1
        else:
            shape = (1, -1, 1, 1) if node.params["ndim"] == 4 else (1, -1)
            sc = append(Node("bn_affine_scale", (scale,), {"shape": shape}))
            sh = append(Node("bn_affine_shift", (bi, mi, scale), {"shape": shape}))
            nodes[i] = Node("bn_affine", (xi, sc, sh))
    return nodes, n_folded


# Runtime ops whose output channel j depends on input channel j alone (and
# on constant side inputs): the live-width walk may cross them.
_CHANNELWISE_OPS = frozenset({"relu", "bn_affine", "max_pool2d", "avg_pool2d"})


def _live_width_walks(
    nodes: list[Node], steps: list[int], runtime: list[bool], output: int
) -> list[tuple[int, int | None, tuple[int, ...]]]:
    """Static half of the live-width pass: ``(conv, producer, affines)`` for
    every runtime conv whose weight (and bias) is a constant.

    The walk starts at the conv's input and crosses single-consumer
    channel-wise nodes.  ``producer`` is the single-consumer constant-weight
    conv it ends at, or None when it ends anywhere else (a residual add, a
    concatenation, the input): then the conv gathers its live channels
    itself.  ``affines`` are the ``bn_affine`` nodes crossed, whose
    per-channel constants are sliced with the producer's rows.
    """
    consumers = {output: 1}
    for i in steps:
        for j in nodes[i].inputs:
            consumers[j] = consumers.get(j, 0) + 1

    def const_side_inputs(i: int) -> bool:
        return not any(runtime[j] for j in nodes[i].inputs[1:])

    def const_conv(i: int) -> bool:
        return nodes[i].op == "conv2d" and runtime[i] and const_side_inputs(i)

    walks = []
    for k in steps:
        if not const_conv(k):
            continue
        x, affines = nodes[k].inputs[0], []
        while (
            consumers.get(x) == 1
            and nodes[x].op in _CHANNELWISE_OPS
            and const_side_inputs(x)
        ):
            if nodes[x].op == "bn_affine":
                affines.append(x)
            x = nodes[x].inputs[0]
        producer = x if consumers.get(x) == 1 and const_conv(x) else None
        walks.append((k, producer, tuple(affines)))
    return walks


class CompiledPlan:
    """An executable eval-mode forward for one row shape and dtype, at any
    row count.

    ``run`` streams one batch through the runtime steps; the constants
    they read (densified masked weights, folded BN tensors) live in the
    slot table and are only recomputed by :meth:`refresh`.

    ``exact=True`` builds a reference plan for differential oracles: convs
    take the module's own im2col route, BatchNorm stays unrewritten, and
    in-place rewrites are disabled, so the plan replays the module's
    floating-point arithmetic bit for bit.
    """

    def __init__(self, graph: Graph, exact: bool = False):
        if exact:
            # Reference mode keeps batch_norm nodes as traced; the rewrite's
            # x·scale + shift form is algebraically equal but rounds
            # differently.
            nodes = [Node(n.op, n.inputs, dict(n.params)) for n in graph.nodes]
            self.n_folded = 0
        else:
            nodes, self.n_folded = _rewrite_batch_norm(graph)
        order = _toposort(nodes, [graph.output])
        if graph.input not in order:
            raise CompileError("plan output does not depend on the input")
        runtime = _runtime_flags(nodes, graph.input)

        self._nodes = nodes
        self._input = graph.input
        self._output = graph.output
        self._const_order = [
            i for i in order if not runtime[i] and nodes[i].op != "input"
        ]
        # Constants are evaluated by :meth:`refresh`, always with KERNELS.
        for i in self._const_order:
            op = nodes[i].op
            if op not in _LEAF_OPS and op not in KERNELS:
                raise CompileError(f"no runtime kernel for op {op!r}")
        runtime_steps = [
            i for i in order if runtime[i] and nodes[i].op not in _LEAF_OPS
        ]
        self._full_steps = _schedule(
            nodes, runtime_steps, {graph.output},
            table.KERNELS if exact else KERNELS, inplace=not exact,
        )
        self._steps = self._full_steps
        self._runtime_slots = runtime_steps
        self._slots: list = [None] * len(nodes)
        # Constant slots a runtime step reads, directly or through constant
        # views: :meth:`refresh` copies the leaves among them, and only those.
        reached = [j for i in runtime_steps for j in nodes[i].inputs if not runtime[j]]
        self._step_read: set[int] = set()
        while reached:
            j = reached.pop()
            if j not in self._step_read:
                self._step_read.add(j)
                if nodes[j].op in _VIEW_OPS:
                    reached.extend(nodes[j].inputs)
        # Live-width pass (fast plans only; :meth:`_narrow` applies it).
        self._walks = [] if exact else _live_width_walks(
            nodes, runtime_steps, runtime, graph.output
        )
        self._step_pos = {i: pos for pos, i in enumerate(runtime_steps)}
        uses: dict[int, int] = {}
        for i in order:
            for j in nodes[i].inputs:
                uses[j] = uses.get(j, 0) + 1
        # Constant slots with more than one user: a sliced copy of one of
        # these goes to a spare slot past the node slots instead.
        self._shared = {j for j, n in uses.items() if n > 1}
        self.op_counts: dict[str, int] = {}
        for i in runtime_steps:
            op = nodes[i].op
            self.op_counts[op] = self.op_counts.get(op, 0) + 1
        # Set by the engine: the model-state signature the constants were
        # last refreshed against.
        self.signature: object = None
        # Resident bytes: the constant slots runtime steps read (densified
        # weights, folded BN tensors) plus the conv scratch of every row
        # count run so far, recorded by each :meth:`refresh` and by the
        # first run at each row count; the number a serving layer's
        # plan-memory budget accounts against.
        self.nbytes = 0
        self._const_nbytes = 0
        self._scratch_rows: set[int] = set()

    @property
    def n_steps(self) -> int:
        return len(self._steps)

    def refresh(self, model: Module) -> None:
        """Recompute the constants from ``model``'s current state, and keep
        only the slots a runtime step reads.

        A leaf a runtime step reads, directly or through a view op, is
        *copied*, never aliased: a plan must snapshot the state it was
        refreshed against.  Aliasing the model's live arrays looks cheaper
        but breaks under the mutate-then-restore pattern — an in-place
        update drifts the aliased array, and a later ``load_state_dict``
        *rebinds* the model's parameters to fresh arrays with the original
        contents, so the engine's content signature matches the
        refresh-time state while the plan still points at the drifted
        orphans.  Every other leaf only feeds constant kernels, whose
        outputs are fresh arrays (``weight * mask``, folded BN), so it is
        read in place.  Once the live-width pass has run, every constant
        slot no runtime step reads is set to ``None``: only what a run
        needs stays resident, and :attr:`nbytes` records only that.  Conv
        scratch is refit to the refreshed widths at every row count it is
        kept for, so a run at a row count already run never changes
        :attr:`nbytes`.
        """
        params = {name: p.data for name, p in model.named_parameters()}
        buffers = dict(model.named_buffers())
        slots = self._slots
        for i in self._const_order:
            node = self._nodes[i]
            if node.op == "param":
                try:
                    value = params[node.params["name"]]
                except KeyError:
                    raise CompileError(
                        f"model has no parameter {node.params['name']!r}"
                    ) from None
            elif node.op == "buffer":
                try:
                    value = np.asarray(buffers[node.params["name"]])
                except KeyError:
                    raise CompileError(
                        f"model has no buffer {node.params['name']!r}"
                    ) from None
            elif node.op == "value":
                value = node.params["value"]
            else:
                slots[i] = KERNELS[node.op](
                    [slots[j] for j in node.inputs], node.params
                )
                continue
            if i in self._step_read and isinstance(value, np.ndarray):
                value = value.copy()
            slots[i] = value
        if self._walks:
            self._narrow()
        read = {j for step in self._steps for j in step[1]}
        for i in self._const_order:
            if i not in read:
                slots[i] = None
        spares = range(len(self._nodes), len(slots))
        self._const_nbytes = sum(
            slots[i].nbytes
            for i in (*self._const_order, *spares)
            if isinstance(slots[i], np.ndarray)
        )
        self._fit_scratch()
        self._count_nbytes()

    def _fit_scratch(self) -> None:
        """Refit each conv's scratch, at every row count it is kept for, to
        the conv's current widths (:func:`_conv_scratch`).  A conv whose
        weight is computed at run time is left to its kernel."""
        for _, inputs, _, params, *_ in self._steps:
            padded = params.get("_scratch")
            w = self._slots[inputs[1]] if padded else None
            if w is None:
                continue
            for n, xp in list(padded.items()):
                _conv_scratch(params, w.shape, n, *xp.shape[2:], xp.dtype)

    def drop_scratch(self, rows: int) -> None:
        """Free the conv scratch kept for ``rows``-row runs; a later run
        at that row count allocates it again."""
        for _, _, _, params, *_ in self._steps:
            for key in ("_scratch", "_scratch_t"):
                params.get(key, {}).pop(rows, None)
        self._scratch_rows.discard(rows)
        self._count_nbytes()

    def _count_nbytes(self) -> None:
        self.nbytes = self._const_nbytes + sum(
            buf.nbytes
            for _, _, _, params, *_ in self._steps
            for key in ("_scratch", "_scratch_t")
            for buf in params.get(key, {}).values()
        )

    def _narrow(self) -> None:
        """Dynamic half of the live-width pass, rerun by every refresh.

        A conv's live input channels are the nonzero columns of its
        densified weight; every structured method masks whole columns, and
        a zero column adds only zero terms, so dropping it is exact.  The
        walk's producer then computes only those rows, and the affines on
        the way keep only those channels; without a producer the conv
        gathers them.  Steps are rebuilt from the full-width list, so a
        refresh that revives a channel widens the plan again.
        """
        nodes, slots = self._nodes, self._slots
        del slots[len(nodes):]  # the last refresh's spare slots
        rows: dict[int, np.ndarray] = {}
        cols: dict[int, np.ndarray] = {}
        for k, producer, affines in self._walks:
            w = slots[nodes[k].inputs[1]]
            live = np.flatnonzero(np.any(w != 0, axis=(0, 2, 3)))
            gather = None
            if live.size < w.shape[1]:
                cols[k] = live
                if producer is None:
                    gather = live
                else:
                    for i in (producer, *affines):
                        rows[i] = live
            if gather is None:
                nodes[k].params.pop("gather", None)
            else:
                nodes[k].params["gather"] = gather
        steps = list(self._full_steps)
        for i in rows.keys() | cols.keys():
            inputs = list(nodes[i].inputs)
            r, c = rows.get(i), cols.get(i)
            if nodes[i].op == "bn_affine":
                sliced = {pos: slots[inputs[pos]][:, r] for pos in (1, 2)}
            else:
                w = slots[inputs[1]]
                w = w if r is None else w[r]
                sliced = {1: w if c is None else w[:, c]}
                if r is not None and len(inputs) == 3:
                    sliced[2] = slots[inputs[2]][r]
            for pos, value in sliced.items():
                if inputs[pos] in self._shared:
                    inputs[pos] = len(slots)
                    slots.append(None)
                slots[inputs[pos]] = value
            pos = self._step_pos[i]
            steps[pos] = (steps[pos][0], tuple(inputs), *steps[pos][2:])
        self._steps = steps

    def run(self, x: np.ndarray) -> np.ndarray:
        """Execute the plan on one batch (constants must be refreshed)."""
        slots = self._slots
        slots[self._input] = x
        try:
            _run_steps(slots, self._steps)
            out = slots[self._output]
        finally:
            slots[self._input] = None
            for i in self._runtime_slots:
                slots[i] = None
        if x.shape[0] not in self._scratch_rows:
            # The first run at a row count allocates its conv scratch.
            self._scratch_rows.add(x.shape[0])
            self._count_nbytes()
        return out
