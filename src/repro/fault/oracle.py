"""The reference oracle: expected behaviour per test call.

The paper notes that automated result analysis needs "a logic model of
the whole system … based on the rules stipulated in the product manual"
(§V) and implements Silent/Hindering detection by manual cross-checking.
This module is that logic model, written *from the documented hypercall
contracts* (independently of the kernel implementation): given one test
call and its resolved arguments, it produces an :class:`Expectation` —
the set of acceptable return codes, whether the call legitimately does
not return, and which parameters are invalid (used both for failure
attribution and for the fault-masking analysis).

The oracle is version-aware: the revised kernel's documentation removes
``XM_multicall`` and adds the 50 µs minimum timer interval, so
expectations differ between 3.4.0 and 3.4.1.

It is also state-aware, as §V asks: "an automated oracle … is only
possible if it considers the state of the separation kernel at that
moment".  The executor captures a state vector before every invocation
(:func:`~repro.fault.testlog.capture_state`), and the contracts of the
seek and sampling services are refined from it.  The documented rules
assume a quiet testbed; they are the ``state=None`` case of
:meth:`ReferenceOracle.expect`, which the truth base's dry run uses.
:meth:`ReferenceOracle.verdict` judges every invocation of an executed
test against the expectation of the state it ran in.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fault.classify import SEVERITY_RANK, Classification, classify
from repro.fault.dictionaries import Symbol
from repro.fault.mutant import ArgSpec, TestCallSpec
from repro.fault.testlog import TestRecord
from repro.xm import rc
from repro.xm.vulns import KernelFeatures, VULNERABLE_VERSION

#: Valid EagleEye partition ids (plus -1 = self).
PARTITION_IDS = frozenset({0, 1, 2, 3, 4})
#: FDIR's open port descriptors at test time: 0 = TM_MON (sampling,
#: destination, 64 B), 1 = FDIR_EVT (queuing, source, 48 B, depth 8).
SAMPLING_PORT = 0
QUEUING_PORT = 1
#: Accessible trace streams for a system partition (kernel = -1).
TRACE_STREAMS = frozenset({-1, 0, 1, 2, 3, 4})
#: Valid scheduling plans.
PLAN_IDS = frozenset({0, 1})
#: Documented console write bound.
MAX_CONSOLE = 1024
#: Documented memory_copy bound.
MAX_COPY = 1 << 20
#: HM/trace read batch bound.
MAX_READ = 64
#: Channel geometry the configuration documents.
TM_MON_SIZE = 64
FDIR_EVT_SIZE = 48
FDIR_EVT_DEPTH = 8
#: The valid I/O register window granted to FDIR (APBUART).
UART_WINDOW = range(0x80000100, 0x80000200)


@dataclass(frozen=True)
class OracleContext:
    """Testbed facts the documented contracts depend on."""

    self_partition: int = 0
    partition_ids: frozenset[int] = PARTITION_IDS
    plan_ids: frozenset[int] = PLAN_IDS
    partition_names: tuple[str, ...] = ("FDIR", "AOCS", "PLATFORM", "PAYLOAD", "IO")
    channel_names: tuple[str, ...] = ("CH_TM_AOCS", "CH_CMD", "CH_PL_DATA", "CH_FDIR_EVT")


@dataclass(frozen=True)
class Expectation:
    """What the documentation allows for one test call."""

    allowed: frozenset[int] = frozenset()
    allow_no_return: bool = False
    allow_nonneg: bool = False
    invalid_params: tuple[str, ...] = ()
    note: str = ""

    def rc_acceptable(self, code: int) -> bool:
        """Whether a returned code matches the contract."""
        if code in self.allowed:
            return True
        return self.allow_nonneg and code >= 0


def _ok(*extra: int, note: str = "", invalid: tuple[str, ...] = ()) -> Expectation:
    return Expectation(
        allowed=frozenset({rc.XM_OK, *extra}), invalid_params=invalid, note=note
    )


def _err(code: int, invalid: tuple[str, ...], note: str = "") -> Expectation:
    return Expectation(allowed=frozenset({code}), invalid_params=invalid, note=note)


def _no_return(note: str) -> Expectation:
    return Expectation(allow_no_return=True, note=note)


def _nonneg(invalid: tuple[str, ...] = (), *also: int, note: str = "") -> Expectation:
    return Expectation(
        allowed=frozenset(also), allow_nonneg=True, invalid_params=invalid, note=note
    )


class ReferenceOracle:
    """Documented-contract expectations for the 39 tested hypercalls."""

    def __init__(
        self,
        kernel_version: str = VULNERABLE_VERSION,
        context: OracleContext | None = None,
    ) -> None:
        self.features = KernelFeatures.for_version(kernel_version)
        self.context = context if context is not None else OracleContext()
        #: Expectation cache: the oracle is pure in (function, labels)
        #: and, for a state-refined service, the state values its
        #: refinement reads; a campaign asks about the same few datasets
        #: thousands of times (every suite reuses the shared dictionaries).
        self._memo: dict[tuple, Expectation] = {}

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _arg(spec: TestCallSpec, name: str) -> ArgSpec:
        for arg in spec.args:
            if arg.param == name:
                return arg
        raise KeyError(f"{spec.function}: no parameter {name!r}")

    @staticmethod
    def _is_symbol(arg: ArgSpec, *symbols: Symbol) -> bool:
        return arg.symbol is not None and Symbol(arg.symbol) in symbols

    def _ptr_valid(self, arg: ArgSpec) -> bool:
        """A pointer is valid when it resolves inside partition memory."""
        return arg.symbol is not None and Symbol(arg.symbol) in (
            Symbol.VALID_BUFFER,
            Symbol.UNALIGNED_BUFFER,
            Symbol.VALID_BATCH_START,
            Symbol.VALID_BATCH_END,
        )

    def _name_valid(self, arg: ArgSpec) -> bool:
        """A name pointer needs both a valid address and termination."""
        return self._is_symbol(arg, Symbol.VALID_NAME)

    # -- entry points ------------------------------------------------------------

    def expect(self, spec: TestCallSpec, state: dict | None = None) -> Expectation:
        """Expectation for one test call made in kernel state ``state``.

        ``state`` is an invocation's captured state vector; ``None`` is
        the quiet testbed the documented rules assume.  Memoized: the
        rules depend only on the function and the labelled dataset
        (labels map one-to-one to test values) plus, for a refined
        service, the state values its refinement reads — never on the
        state dict's identity or key order.
        """
        return self._expect(spec, (spec.function, spec.arg_labels()), state)

    def verdict(
        self, record: TestRecord, spec: TestCallSpec, key: tuple | None = None
    ) -> tuple[Expectation, Classification]:
        """Judge one executed test: the path every verdict takes.

        Each invocation is judged against :meth:`expect` in the state it
        ran in.  A service without a state refinement has one
        expectation per record.  Otherwise the record is classified once
        per distinct expectation among its invocations and the worst
        result stands, returned with the expectation that decided it.
        ``key`` is the memo key ``(function, arg_labels)`` when the
        caller already holds it (a compiled plan entry).
        """
        if key is None:
            key = (spec.function, spec.arg_labels())
        static = self._expect(spec, key)
        if spec.function not in self._REFINERS:
            return static, classify(record, static)
        judged: dict[Expectation, list[int]] = {}
        state = indices = None
        for index, invocation in enumerate(record.invocations):
            if indices is None or invocation.state is not state:
                # Consecutive invocations often share one state object.
                state = invocation.state
                indices = judged.setdefault(self._expect(spec, key, state), [])
            indices.append(index)
        if len(judged) <= 1:
            expectation = next(iter(judged), static)
            return expectation, classify(record, expectation)
        return min(  # the first of the most severe
            ((expectation, classify(record, expectation, indices))
             for expectation, indices in judged.items()),
            key=lambda verdict: SEVERITY_RANK[verdict[1].severity],
        )

    def _expect(
        self, spec: TestCallSpec, key: tuple, state: dict | None = None
    ) -> Expectation:
        """:meth:`expect` with the memo key ``(function, arg_labels)`` given."""
        expectation = self._memo.get(key)
        if expectation is None:
            handler = getattr(self, f"_x_{spec.function}", None)
            if handler is None:
                raise KeyError(f"no oracle rule for {spec.function}")
            values = {arg.param: arg for arg in spec.args}
            literals = {arg.param: arg.value for arg in spec.args}
            expectation = self._memo[key] = handler(spec, values, literals)
        if not state:
            return expectation
        refiner = self._REFINERS.get(spec.function)
        if refiner is None:
            return expectation
        reads, refine = refiner
        read = reads(self, spec, expectation, state)
        if read is None:
            return expectation
        refined_key = (*key, read)
        refined = self._memo.get(refined_key)
        if refined is None:
            refined = self._memo[refined_key] = refine(self, spec, expectation, *read)
        return refined

    # -- System Management ----------------------------------------------------------

    def _x_XM_get_system_status(self, spec, args, lit) -> Expectation:
        if not self._ptr_valid(args["status"]):
            return _err(rc.XM_INVALID_PARAM, ("status",))
        return _ok()

    def _x_XM_reset_system(self, spec, args, lit) -> Expectation:
        mode = lit["mode"]
        if mode in (rc.XM_COLD_RESET, rc.XM_WARM_RESET):
            return _no_return(f"documented {'warm' if mode else 'cold'} system reset")
        return _err(rc.XM_INVALID_PARAM, ("mode",))

    # -- Partition Management ----------------------------------------------------------

    def _valid_partition(self, value: int) -> bool:
        return value == rc.XM_PARTITION_SELF or value in self.context.partition_ids

    def _is_self(self, value: int) -> bool:
        return value in (rc.XM_PARTITION_SELF, self.context.self_partition)

    def _x_XM_get_partition_status(self, spec, args, lit) -> Expectation:
        invalid = []
        if not self._valid_partition(lit["partitionId"]):
            invalid.append("partitionId")
        if not self._ptr_valid(args["status"]):
            invalid.append("status")
        if invalid:
            return _err(rc.XM_INVALID_PARAM, tuple(invalid))
        return _ok()

    def _x_XM_halt_partition(self, spec, args, lit) -> Expectation:
        ident = lit["partitionId"]
        if not self._valid_partition(ident):
            return _err(rc.XM_INVALID_PARAM, ("partitionId",))
        if self._is_self(ident):
            return _no_return("documented self-halt")
        return _ok()

    def _x_XM_reset_partition(self, spec, args, lit) -> Expectation:
        invalid = []
        if not self._valid_partition(lit["partitionId"]):
            invalid.append("partitionId")
        if lit["resetMode"] not in (rc.XM_COLD_RESET, rc.XM_WARM_RESET):
            invalid.append("resetMode")
        if invalid:
            return _err(rc.XM_INVALID_PARAM, tuple(invalid))
        if self._is_self(lit["partitionId"]):
            return _no_return("documented self-reset")
        return _ok()

    def _x_XM_resume_partition(self, spec, args, lit) -> Expectation:
        if not self._valid_partition(lit["partitionId"]):
            return _err(rc.XM_INVALID_PARAM, ("partitionId",))
        return _ok(rc.XM_NO_ACTION, note="state-dependent")

    def _x_XM_suspend_partition(self, spec, args, lit) -> Expectation:
        ident = lit["partitionId"]
        if not self._valid_partition(ident):
            return _err(rc.XM_INVALID_PARAM, ("partitionId",))
        if self._is_self(ident):
            return _no_return("documented self-suspend")
        return _ok(rc.XM_NO_ACTION, note="state-dependent")

    def _x_XM_shutdown_partition(self, spec, args, lit) -> Expectation:
        ident = lit["partitionId"]
        if not self._valid_partition(ident):
            return _err(rc.XM_INVALID_PARAM, ("partitionId",))
        if self._is_self(ident):
            return _no_return("documented self-shutdown")
        return _ok()

    # -- Time Management ------------------------------------------------------------------

    def _x_XM_get_time(self, spec, args, lit) -> Expectation:
        invalid = []
        if lit["clockId"] not in (rc.XM_HW_CLOCK, rc.XM_EXEC_CLOCK):
            invalid.append("clockId")
        if not self._ptr_valid(args["time"]):
            invalid.append("time")
        if invalid:
            return _err(rc.XM_INVALID_PARAM, tuple(invalid))
        return _ok()

    def _x_XM_set_timer(self, spec, args, lit) -> Expectation:
        invalid = []
        if lit["clockId"] not in (rc.XM_HW_CLOCK, rc.XM_EXEC_CLOCK):
            invalid.append("clockId")
        interval = lit["interval"]
        if interval < 0:
            invalid.append("interval")
        elif 0 < interval < self.features.set_timer_min_interval_us:
            # Only documented after the revision.
            invalid.append("interval")
        if invalid:
            return _err(rc.XM_INVALID_PARAM, tuple(invalid))
        return _ok(note="absTime <= 0 disarms; future absTime arms")

    # -- Plan Management --------------------------------------------------------------------

    def _x_XM_switch_sched_plan(self, spec, args, lit) -> Expectation:
        if lit["planId"] not in self.context.plan_ids:
            return _err(rc.XM_INVALID_PARAM, ("planId",))
        return _ok()

    # -- IPC --------------------------------------------------------------------------------

    def _x_XM_create_sampling_port(self, spec, args, lit) -> Expectation:
        if not self._name_valid(args["portName"]):
            return _err(rc.XM_INVALID_PARAM, ("portName",))
        if lit["direction"] not in (rc.XM_SOURCE_PORT, rc.XM_DESTINATION_PORT):
            return _err(rc.XM_INVALID_PARAM, ("direction",))
        if lit["refreshPeriod"] is not None and lit["refreshPeriod"] < 0:
            return _err(rc.XM_INVALID_PARAM, ("refreshPeriod",))
        # VALID_NAME resolves to TM_MON: a sampling destination of 64 B.
        invalid = []
        if lit["direction"] != rc.XM_DESTINATION_PORT:
            invalid.append("direction")
        if lit["maxMsgSize"] != TM_MON_SIZE:
            invalid.append("maxMsgSize")
        if invalid:
            return _err(rc.XM_INVALID_CONFIG, tuple(invalid))
        return _nonneg(note="descriptor")

    def _x_XM_create_queuing_port(self, spec, args, lit) -> Expectation:
        if not self._name_valid(args["portName"]):
            return _err(rc.XM_INVALID_PARAM, ("portName",))
        if lit["direction"] not in (rc.XM_SOURCE_PORT, rc.XM_DESTINATION_PORT):
            return _err(rc.XM_INVALID_PARAM, ("direction",))
        # VALID_NAME resolves to FDIR_EVT: queuing source, 48 B, depth 8.
        invalid = []
        if lit["direction"] != rc.XM_SOURCE_PORT:
            invalid.append("direction")
        if lit["maxNoMsgs"] != FDIR_EVT_DEPTH:
            invalid.append("maxNoMsgs")
        if lit["maxMsgSize"] != FDIR_EVT_SIZE:
            invalid.append("maxMsgSize")
        if invalid:
            return _err(rc.XM_INVALID_CONFIG, tuple(invalid))
        return _nonneg(note="descriptor")

    def _x_XM_write_sampling_message(self, spec, args, lit) -> Expectation:
        port = lit["portDesc"]
        if port != SAMPLING_PORT:
            return _err(rc.XM_INVALID_PARAM, ("portDesc",))
        # Port 0 is a destination: writing is a mode error, reported
        # before buffer/size validation per the manual.
        return _err(rc.XM_INVALID_MODE, ("portDesc",), note="destination port")

    def _x_XM_read_sampling_message(self, spec, args, lit) -> Expectation:
        port = lit["portDesc"]
        if port != SAMPLING_PORT:
            return _err(rc.XM_INVALID_PARAM, ("portDesc",))
        invalid = []
        if lit["msgSize"] is not None and lit["msgSize"] < TM_MON_SIZE:
            invalid.append("msgSize")
        if not self._ptr_valid(args["msgPtr"]):
            invalid.append("msgPtr")
        if not self._ptr_valid(args["flags"]):
            invalid.append("flags")
        if invalid:
            # Before the first telemetry frame the channel is empty and
            # the call legitimately reports NO_ACTION first.
            return Expectation(
                allowed=frozenset({rc.XM_INVALID_PARAM, rc.XM_NO_ACTION}),
                invalid_params=tuple(invalid),
            )
        return _nonneg((), rc.XM_NO_ACTION, note="message length or empty")

    def _x_XM_send_queuing_message(self, spec, args, lit) -> Expectation:
        port = lit["portDesc"]
        if port != QUEUING_PORT:
            return _err(rc.XM_INVALID_PARAM, ("portDesc",))
        invalid = []
        size = lit["msgSize"]
        if size is not None and not 0 < size <= FDIR_EVT_SIZE:
            invalid.append("msgSize")
        if not self._ptr_valid(args["msgPtr"]):
            invalid.append("msgPtr")
        if invalid:
            return _err(rc.XM_INVALID_PARAM, tuple(invalid))
        return _ok(rc.XM_NO_SPACE, note="queue may fill across invocations")

    def _x_XM_receive_queuing_message(self, spec, args, lit) -> Expectation:
        port = lit["portDesc"]
        if port != QUEUING_PORT:
            return _err(rc.XM_INVALID_PARAM, ("portDesc",))
        # Port 1 is a source: receiving is a mode error.
        return _err(rc.XM_INVALID_MODE, ("portDesc",), note="source port")

    def _x_XM_get_port_status(self, spec, args, lit) -> Expectation:
        if lit["portDesc"] not in (SAMPLING_PORT, QUEUING_PORT):
            return _err(rc.XM_INVALID_PARAM, ("portDesc",))
        if not self._ptr_valid(args["status"]):
            return _err(rc.XM_INVALID_PARAM, ("status",))
        return _ok()

    def _x_XM_flush_port(self, spec, args, lit) -> Expectation:
        if lit["portDesc"] not in (SAMPLING_PORT, QUEUING_PORT):
            return _err(rc.XM_INVALID_PARAM, ("portDesc",))
        return _ok()

    # -- Memory Management ------------------------------------------------------------------

    def _x_XM_memory_copy(self, spec, args, lit) -> Expectation:
        invalid = []
        if not self._valid_partition(lit["dstId"]):
            invalid.append("dstId")
        if not self._valid_partition(lit["srcId"]):
            invalid.append("srcId")
        if invalid:
            return _err(rc.XM_INVALID_PARAM, tuple(invalid))
        size = lit["size"]
        if size is not None and not 0 < size <= MAX_COPY:
            return _err(rc.XM_INVALID_PARAM, ("size",))
        # A VALID address resolves into FDIR's area: it is in range only
        # when the corresponding id names FDIR (0 or self).
        src_ok = self._ptr_valid(args["srcAddr"]) and self._is_self(lit["srcId"])
        if not src_ok:
            return _err(
                rc.XM_INVALID_ADDRESS,
                ("srcAddr",) if self._is_self(lit["srcId"]) else ("srcAddr", "srcId"),
            )
        dst_ok = self._ptr_valid(args["dstAddr"]) and self._is_self(lit["dstId"])
        if not dst_ok:
            return _err(
                rc.XM_INVALID_ADDRESS,
                ("dstAddr",) if self._is_self(lit["dstId"]) else ("dstAddr", "dstId"),
            )
        return _ok()

    # -- Health Monitor -----------------------------------------------------------------------

    def _x_XM_hm_status(self, spec, args, lit) -> Expectation:
        if not self._ptr_valid(args["status"]):
            return _err(rc.XM_INVALID_PARAM, ("status",))
        return _ok()

    def _x_XM_hm_read(self, spec, args, lit) -> Expectation:
        count = lit["noLogs"]
        invalid = []
        if count is not None and not 0 < count <= MAX_READ:
            invalid.append("noLogs")
        if not self._ptr_valid(args["log"]):
            invalid.append("log")
        if invalid:
            return _err(rc.XM_INVALID_PARAM, tuple(invalid))
        return _nonneg(note="records read")

    def _x_XM_hm_seek(self, spec, args, lit) -> Expectation:
        offset, whence = lit["offset"], lit["whence"]
        invalid = []
        if whence not in (0, 1, 2):
            invalid.append("whence")
        # The log is empty on a quiet testbed: only offset 0 is in range.
        if offset != 0:
            invalid.append("offset")
        if invalid:
            return _err(rc.XM_INVALID_PARAM, tuple(invalid))
        return _ok()

    # -- Trace ------------------------------------------------------------------------------------

    def _trace_stream_valid(self, value: int) -> bool:
        return value in TRACE_STREAMS

    def _x_XM_trace_open(self, spec, args, lit) -> Expectation:
        if not self._trace_stream_valid(lit["streamId"]):
            return _err(rc.XM_INVALID_PARAM, ("streamId",))
        return _nonneg(note="stream descriptor")

    def _x_XM_trace_read(self, spec, args, lit) -> Expectation:
        invalid = []
        if not self._trace_stream_valid(lit["streamId"]):
            invalid.append("streamId")
        count = lit["noEvents"]
        if count is not None and not 0 < count <= MAX_READ:
            invalid.append("noEvents")
        if not self._ptr_valid(args["events"]):
            invalid.append("events")
        if invalid:
            return _err(rc.XM_INVALID_PARAM, tuple(invalid))
        return _nonneg(note="events read")

    def _x_XM_trace_seek(self, spec, args, lit) -> Expectation:
        invalid = []
        if not self._trace_stream_valid(lit["streamId"]):
            invalid.append("streamId")
        if lit["whence"] not in (0, 1, 2):
            invalid.append("whence")
        if lit["offset"] != 0:
            invalid.append("offset")  # streams are empty on a quiet run
        if invalid:
            return _err(rc.XM_INVALID_PARAM, tuple(invalid))
        return _ok()

    def _x_XM_trace_status(self, spec, args, lit) -> Expectation:
        invalid = []
        if not self._trace_stream_valid(lit["streamId"]):
            invalid.append("streamId")
        if not self._ptr_valid(args["status"]):
            invalid.append("status")
        if invalid:
            return _err(rc.XM_INVALID_PARAM, tuple(invalid))
        return _ok()

    # -- Interrupts ----------------------------------------------------------------------------------

    def _x_XM_route_irq(self, spec, args, lit) -> Expectation:
        invalid = []
        irq_type, line, vector = lit["irqType"], lit["irqLine"], lit["vector"]
        if irq_type == 0:
            if not 1 <= line <= 15:
                invalid.append("irqLine")
        elif irq_type == 1:
            if not 0 <= line <= 31:
                invalid.append("irqLine")
        else:
            invalid.append("irqType")
        if not 0 <= vector <= 255:
            invalid.append("vector")
        if invalid:
            return _err(rc.XM_INVALID_PARAM, tuple(invalid))
        return _ok()

    def _virq_line(self, spec, lit) -> Expectation:
        if not 0 <= lit["irqLine"] <= 31:
            return _err(rc.XM_INVALID_PARAM, ("irqLine",))
        return _ok()

    def _x_XM_mask_irq(self, spec, args, lit) -> Expectation:
        return self._virq_line(spec, lit)

    def _x_XM_unmask_irq(self, spec, args, lit) -> Expectation:
        return self._virq_line(spec, lit)

    def _x_XM_set_irqpend(self, spec, args, lit) -> Expectation:
        return self._virq_line(spec, lit)

    # -- Miscellaneous ----------------------------------------------------------------------------------

    def _x_XM_multicall(self, spec, args, lit) -> Expectation:
        if not self.features.multicall_available:
            return Expectation(
                allowed=frozenset({rc.XM_NO_SERVICE}),
                note="service removed in the revised kernel",
            )
        invalid = []
        if not self._is_symbol(args["startAddr"], Symbol.VALID_BATCH_START):
            invalid.append("startAddr")
        if not self._is_symbol(args["endAddr"], Symbol.VALID_BATCH_END):
            invalid.append("endAddr")
        if invalid:
            return _err(rc.XM_INVALID_PARAM, tuple(invalid))
        return _nonneg(note="batch entry count")

    def _x_XM_write_console(self, spec, args, lit) -> Expectation:
        length = lit["length"]
        if length == 0:
            return Expectation(allowed=frozenset({0}), note="empty write")
        invalid = []
        if length is not None and length > MAX_CONSOLE:
            invalid.append("length")
        if not self._ptr_valid(args["buffer"]):
            invalid.append("buffer")
        if invalid:
            return _err(rc.XM_INVALID_PARAM, tuple(invalid))
        return _nonneg(note="bytes written")

    def _x_XM_get_gid_by_name(self, spec, args, lit) -> Expectation:
        if not self._name_valid(args["name"]):
            return _err(rc.XM_INVALID_PARAM, ("name",))
        entity = lit["entity"]
        if entity not in (0, 1):
            return _err(rc.XM_INVALID_PARAM, ("entity",))
        # VALID_NAME resolves to "PAYLOAD": a partition, not a channel.
        if entity == 0:
            return _nonneg(note="partition gid")
        return _err(rc.XM_INVALID_CONFIG, ("name",), note="no such channel")

    # -- SPARC ------------------------------------------------------------------------------------------------

    def _io_port_valid(self, value: int) -> bool:
        return value in UART_WINDOW

    def _x_XM_sparc_inport(self, spec, args, lit) -> Expectation:
        if not self._io_port_valid(lit["port"]):
            return _err(rc.XM_INVALID_PARAM, ("port",))
        return _nonneg(note="register value")

    def _x_XM_sparc_outport(self, spec, args, lit) -> Expectation:
        if not self._io_port_valid(lit["port"]):
            return _err(rc.XM_INVALID_PARAM, ("port",))
        return _ok()

    def _atomic(self, spec, args, lit) -> Expectation:
        arg = args["address"]
        if self._ptr_valid(arg):
            return _ok()
        value = lit["address"]
        if value is not None and value % 4:
            return _err(rc.XM_INVALID_PARAM, ("address",))
        return _err(rc.XM_INVALID_ADDRESS, ("address",))

    def _x_XM_sparc_atomic_add(self, spec, args, lit) -> Expectation:
        return self._atomic(spec, args, lit)

    def _x_XM_sparc_atomic_and(self, spec, args, lit) -> Expectation:
        return self._atomic(spec, args, lit)

    def _x_XM_sparc_atomic_or(self, spec, args, lit) -> Expectation:
        return self._atomic(spec, args, lit)

    # -- State refinements (§V) ------------------------------------------------------------------------
    #
    # Each refined service names the state values its contract reads
    # (``None``: the documented rule stands in every state) and refines
    # the quiet-testbed expectation from those values alone.

    def _seek_in_state(self, spec, static, length, cursor) -> Expectation:  # noqa: ANN001
        """A seek succeeds exactly when its target lies inside the log."""
        offset = self._arg(spec, "offset").value or 0
        whence = self._arg(spec, "whence").value or 0
        target = {0: offset, 1: cursor + offset, 2: length + offset}.get(whence)
        if target is None:
            return static  # an unknown whence is invalid in every state
        if 0 <= target <= length:
            return Expectation(allowed=frozenset({rc.XM_OK}), note="in range (state)")
        return _err(rc.XM_INVALID_PARAM, ("offset",), note="out of range (state)")

    def _r_XM_hm_seek(self, spec, static, state) -> tuple:  # noqa: ANN001
        return state["hm_len"], state["hm_cursor"]

    def _r_XM_trace_seek(self, spec, static, state) -> tuple | None:  # noqa: ANN001
        if "streamId" in static.invalid_params:
            return None
        stream = str(self._arg(spec, "streamId").value or 0)
        return state["trace_lens"].get(stream, 0), state["trace_cursors"].get(stream, 0)

    def _r_XM_read_sampling_message(self, spec, static, state) -> tuple | None:  # noqa: ANN001
        if not static.rc_acceptable(rc.XM_NO_ACTION):
            return None
        return (state["tm_message"],)

    def _s_XM_read_sampling_message(self, spec, static, tm_message) -> Expectation:  # noqa: ANN001
        # With the channel state known, the empty/full ambiguity is gone.
        if tm_message:
            return Expectation(
                allowed=frozenset(code for code in static.allowed if code != rc.XM_NO_ACTION),
                allow_nonneg=static.allow_nonneg,
                invalid_params=static.invalid_params,
                note="message present (state)",
            )
        if static.invalid_params:
            # Empty channel: NO_ACTION precedes the parameter checks.
            return _err(rc.XM_NO_ACTION, static.invalid_params, note="empty channel (state)")
        return static

    #: ``function -> (reads, refine)`` for the state-dependent services.
    _REFINERS = {
        "XM_hm_seek": (_r_XM_hm_seek, _seek_in_state),
        "XM_trace_seek": (_r_XM_trace_seek, _seek_in_state),
        "XM_read_sampling_message": (
            _r_XM_read_sampling_message, _s_XM_read_sampling_message,
        ),
    }
