/* Compiled hot-path backend for the TLT simulator (repro.sim._ckernel).
 *
 * Drop-in C implementations of the inner loops behind
 * ``repro.sim.backend``:
 *
 *   - CEngine  -- mirrors repro.sim.engine.Engine exactly: same (time,
 *     seq) event order, kept in a C array of entries (link.py, the timer
 *     wheel and sharding push the pure engine's tuple layouts through
 *     _push), same GC-threshold dance, same end-of-run clock rule, same
 *     attribution hook.
 *   - CEvent   -- the cancellation handle (interops with TimerWheel);
 *     built by the engine only, read-only from Python but for in_wheel.
 *   - SwitchKernel / HostKernel / PortKernel -- per-instance kernels
 *     bound by repro.sim.backend.optimize_network; each exposes
 *     KernelMethod callables bound in place of the pure-Python methods
 *     (Switch._receive/_poll via Switch._bind_data_path, host.send,
 *     port._tx_cb, ...).
 *   - Inside HostKernel.sink, the per-packet work of a byte-stream flow:
 *     c_receiver_on_packet (DATA -> receive buffer -> completion -> ACK),
 *     c_sender_on_packet (ACK -> scoreboard, loss detection, RTO, window
 *     growth) and c_sender_burst (try_send -> _transmit -> TLT mark_data ->
 *     host.send), which cengine_dispatch also enters in place of a flow's
 *     start() event. Each transcribes the repro.transport / repro.core
 *     methods it stands in for and is gated, per packet or per burst and
 *     before it changes anything, on those still being the functions
 *     captured at import; congestion control, the TLT controller's ACK
 *     side and clocking, _on_timeout and the completion callbacks stay
 *     Python calls.
 *
 * Determinism contract: every arithmetic decision below transcribes the
 * pure-Python fast path statement by statement -- same comparison
 * order, same drop precedence, same integer/float mixing (all values
 * stay far below 2**53 so C doubles are exact) -- and the heap orders
 * entries by their unique (time, seq) pairs, as heapq orders the pure
 * engine's tuples.  The pinned fingerprints in
 * tests/test_determinism.py gate this bit-for-bit.
 *
 * Where a value is read: never through PyObject_GetAttr per packet.
 *   - Bound in a kernel's __init__, what is fixed once the network is built:
 *     the device's engine, FIB (fib._routes; fib.lookup, pfc.on_admit and
 *     on_release called by vectorcall), buffer, stats, ports, PFC engine,
 *     NIC queue, endpoint table and in-flight FIFO; a switch's _port_queues,
 *     _rr, ECN scheme (StepEcn's k_bytes, else its bound should_mark) and
 *     config fields. SwitchConfig is frozen; Switch.reconfigure replaces a
 *     switch's config and builds its kernel anew. Deque methods are the
 *     module's method descriptors, called by vectorcall.
 *   - Read from the object's own attributes (inst_peek: its inline values
 *     or instance dict) or the module dict, what Python rebinds mid-run:
 *     owner.receive/poll (interceptors, the auditor), host.send,
 *     switch.audit/_drop, _pool_enabled, NetStats counters, the fields of a
 *     FlowSpec or TransportConfig and a TLT controller's state. Kernel
 *     __init__ (import, for the classes) checks that the type holds no data
 *     descriptor of those names, so that is where Python looks first.
 *   - Read from __slots__ at offsets resolved at import: packets, ports,
 *     queues, buffers, scoreboard entries, RTO estimators; small ints
 *     straight from their digits (ll_read_fast).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <time.h>

/* ll_read_fast reads Py_SIZE(v) and v->ob_digit[], CPython 3.11's int
 * layout, and inst_peek 3.11's inline instance values; 3.12 replaced both
 * and no 3.12 interpreter has been there to test a port on. A best-effort
 * install then falls back to the pure backend with this message. */
#if PY_VERSION_HEX >= 0x030C0000
#error "repro.sim._ckernel supports CPython up to 3.11 (object layouts); use the pure backend"
#endif
#define Py_BUILD_CORE
#include "internal/pycore_dict.h"  /* PyDictKeysObject, for inst_peek */
#undef Py_BUILD_CORE

#define NEVER_LL (1LL << 62)
#define COMPACT_MIN_DEAD_C 64
#define POOL_MAX_C 4096

/* ---------------------------------------------------------------------------
 * Module-level cached state (single-interpreter; resolved at import).
 * ------------------------------------------------------------------------- */

static PyObject *SimulationErrorObj;  /* repro.sim.engine.SimulationError */
static PyObject *TimerWheelCls;       /* repro.sim.timerwheel.TimerWheel */
static PyObject *StepEcnCls;          /* repro.switchsim.ecn.StepEcn */
static PyObject *IntRecordCls;        /* repro.net.packet.IntRecord */
static PyObject *PortCls;             /* repro.net.link.Port */
static PyObject *PacketModuleDict;    /* vars(repro.net.packet), for _pool_enabled */
static PyObject *PacketPool;          /* repro.net.packet._POOL (cleared in place) */
static PyObject *DequeAppend, *DequePopleft, *DequeAppendleft;  /* deque's methods */
static PyTypeObject *FlowSpecCls, *TransportConfigCls;
static PyObject *GcGetThreshold, *GcSetThreshold, *GcEnable, *GcDisable, *GcIsEnabled;
static PyObject *GcRunThresholds;     /* (100000, 20, 20) */
static PyObject *EmptyTuple;
static PyObject *LLZero, *LLOne;      /* FRAME_PACKET / FRAME_PAUSE */
static PyObject *Attribution;         /* attribution table (dict) or NULL */

/* Packet allocation fast path (mod_alloc_packet). */
static PyObject *PacketCls;           /* repro.net.packet.Packet */
static PyObject *AllocPacketPy;       /* the original Python alloc_packet */
static PyObject *KindDATAObj, *KindCNPObj;   /* PacketKind singletons */
static PyObject *MarkNONEObj, *ColorGREENObj;
static PyObject *AckBytesObj, *CnpBytesObj;  /* cached size ints */
static long long HeaderBytesLL;

/* Receiver path (c_receiver_on_packet): DATA delivery to a stock
 * ByteStreamReceiver, handled without entering Python. */
static PyObject *BSReceiverOnPacket;  /* ByteStreamReceiver.on_packet */
static PyObject *ReceiverRecordProp;  /* ByteStreamReceiver.record, the property */
static PyObject *TltWindowReceiverCls, *ReceiverBufferCls;
static PyObject *RecvIMPORTANTObj, *RecvIMPCLOCKObj, *RecvIDLEObj;
static PyObject *KindACKObj;
static PyObject *MarkIMPDATAObj, *MarkIMPCLOCKDATAObj;
static PyObject *MarkIMPECHOObj, *MarkIMPCLOCKECHOObj, *MarkCONTROLObj;

/* Sender path (c_sender_on_packet): the methods it transcribes, as the
 * byte-stream sender classes define them at import. A sender keeps the
 * C path while its type resolves every name to the captured function
 * and its instance dict holds none of them. */
#define N_CORE 8
static const char *const CoreMethodNames[N_CORE] = {
    "on_packet", "_ack_to", "_apply_sack", "_detect_losses",
    "mark_lost_sent_before", "_mark_lost", "_restart_rto", "_srtt"};
static PyObject *CoreNames[N_CORE], *CoreFns[N_CORE];
static PyObject *TltOnAckFn;          /* TltWindowSender.on_ack */
static PyObject *RtoSampleFn;         /* RtoEstimator.on_rtt_sample */
static PyObject *ReservoirAddFn;      /* Reservoir.add */
static PyTypeObject *EntryCls, *RtoEstimatorCls, *ReservoirCls;

/* Send path (c_sender_burst): a second name set, asked where a burst
 * begins. start() is the last one, asked only of a flow's start event. */
#define N_BURST 7
static const char *const BurstMethodNames[N_BURST] = {
    "try_send", "_transmit", "_is_last_allowed", "_record_tx", "_next_lost",
    "_restart_rto", "start"};
static PyObject *BurstNames[N_BURST], *BurstFns[N_BURST];
#define SenderStartFn (BurstFns[N_BURST - 1])
static PyObject *TltMarkDataFn, *TltAfterAckFn;  /* TltWindowSender's */
static PyObject *EntryInitFn;         /* Entry.__init__ */
static PyObject *SendIMPORTANTObj, *SendIDLEObj;  /* core.window._SendState */
static PyObject *ColorREDObj, *s_init, *s_alloc_packet;
static PyObject *TransportBaseDict;   /* vars(repro.transport.base) */
static PyObject *AllocPacketC;        /* this module's alloc_packet */
static PyTypeObject *TltWindowSenderCls, *FlowRecordCls, *NetStatsCls, *DequeCls;
static Py_ssize_t F_retx_bytes, F_tx_bytes;            /* FlowRecord */

/* Interned attribute-name strings. */
static PyObject *s_kick, *s_flush, *s_add, *s_receive, *s_receive_pause,
    *s_poll, *s_port_queues, *s_rr, *s_ecn,
    *s_color_threshold_bytes, *s_color_classes, *s_int_enabled, *s_k_bytes,
    *s_should_mark, *s_ecn_marks, *s_on_packet, *s_add_int_record,
    *s_qualname, *s_live, *s_pool_enabled, *s_fib, *s_routes, *s_lookup,
    *s_buffer, *s_stats, *s_ports, *s_drop_m, *s_config, *s_pfc,
    *s_on_admit, *s_on_release, *s_engine, *s_nic, *s_queue_attr,
    *s_endpoints, *s_port_attr, *s_color_str, *s_pool_str, *s_dynamic_str,
    *s_tlt_rx, *s_done, *s_spec, *s_state, *s_traffic_class,
    *s_plain_color, *s_size_attr, *s_src_attr, *s_dst_attr,
    *s_flow_id_attr, *s_host_attr, *s_send_attr, *s_switch_id;

/* Sender-path attribute and method names: sn_<name>. */
#define SENDER_NAMES(X)                                                      \
    X(completed) X(tlt) X(rto) X(entries) X(lost_queue) X(pipe) X(snd_una)   \
    X(snd_nxt) X(dupacks) X(stride) X(cwnd) X(ssthresh) X(mss) X(max_cwnd)   \
    X(in_recovery) X(recover_point) X(_head) X(_scan_hint)                   \
    X(_highest_sacked) X(_retx_inflight) X(_add_rtt_sample)                  \
    X(_add_delivery_sample) X(_probe_outstanding) X(_rto_deadline)           \
    X(_rto_event) X(_rto_fire) X(_ca_acc) X(on_ack) X(after_ack)             \
    X(cc_on_ack) X(_on_loss_detected) X(_complete) X(try_send)               \
    X(on_rtt_sample) X(current) X(srtt) X(recovery) X(base_rtt_ns)           \
    X(started) X(established) X(record) X(_arm_pto) X(mark_data) X(sender)   \
    X(tlp) X(handshake) X(green_data_packets) X(green_data_bytes)            \
    X(red_data_packets) X(red_data_bytes) X(end_rx_ns) X(on_complete_rx) X(flows)
#define X(n) static PyObject *sn_##n;
SENDER_NAMES(X)
#undef X

/* __slots__ offsets (resolved at import from the Python types). */
static Py_ssize_t P_engine, P_owner, P_port_no, P_peer, P_rate_bps,
    P_delay_ns, P_busy, P_paused, P_down, P_tx_bytes, P_tx_packets,
    P_peer_deliver, P_wire_seq, P_inflight, P_tx_cb, P_drain_cb;
static Py_ssize_t K_flow_id, K_dst, K_kind, K_size, K_tclass,
    K_ecn_capable, K_ce, K_color, K_int_records, K_pooled,
    K_src, K_seq, K_payload, K_ack, K_sack, K_ecn_echo, K_mark,
    K_is_retx, K_ts_sent, K_ts_echo, K_int_echo;
static Py_ssize_t R_rcv_nxt, R_intervals, R_last_seq;  /* ReceiverBuffer */
/* reliable.Entry: int fields (first/last_tx_ns use -1 for "never") and flags. */
enum { EN_START, EN_END, EN_WEIGHT, EN_RETX_COUNT, EN_FIRST_TX, EN_LAST_TX, EN_COUNT };
enum { EF_ACKED, EF_SACKED, EF_LOST, EF_IN_PIPE, EF_DELIVERED, EF_COUNT };
static const char *const EntryIntNames[EN_COUNT] = {
    "start", "end", "weight", "retx_count", "first_tx_ns", "last_tx_ns"};
static const char *const EntryFlagNames[EF_COUNT] = {
    "acked", "sacked", "lost", "in_pipe", "delivered"};
static Py_ssize_t EntryIntOff[EN_COUNT], EntryFlagOff[EF_COUNT];
static Py_ssize_t T_rto_min, T_granularity, T_srtt, T_rttvar, T_backoff_count,
    T_base_rto, T_current, T_base_max;                 /* RtoEstimator */
static Py_ssize_t V_capacity, V_seen, V_samples;       /* Reservoir */
static Py_ssize_t Q_items, Q_occupancy, Q_red_bytes, Q_max_occupancy,
    Q_max_red_bytes, Q_dequeued_bytes;
static Py_ssize_t B_capacity, B_alpha, B_used, B_peak_used;

/* ---------------------------------------------------------------------------
 * Small helpers.
 * ------------------------------------------------------------------------- */

#define GETSLOT(obj, off) (*(PyObject **)((char *)(obj) + (off)))

/* Read a non-negative PyLong that fits in 62 bits straight from its
 * digits (times, sequence numbers, sizes and counters in this simulator
 * are always in that range). Returns 1 and fills *out on success, 0 when
 * the value is not an exact int, negative, or huge. Never raises. */
static inline int
ll_read_fast(PyObject *o, long long *out)
{
    if (!PyLong_CheckExact(o))
        return 0;
    const PyLongObject *v = (const PyLongObject *)o;
    switch (Py_SIZE(v)) {
    case 0:
        *out = 0;
        return 1;
    case 1:
        *out = (long long)v->ob_digit[0];
        return 1;
    case 2:
        *out = ((long long)v->ob_digit[1] << PyLong_SHIFT) |
               (long long)v->ob_digit[0];
        return 1;
    case 3:
        /* Three digits reach 2^90; only accept values below 2^62. */
        if (v->ob_digit[2] >> (62 - 2 * PyLong_SHIFT))
            return 0;
        *out = ((long long)v->ob_digit[2] << (2 * PyLong_SHIFT)) |
               ((long long)v->ob_digit[1] << PyLong_SHIFT) |
               (long long)v->ob_digit[0];
        return 1;
    default:
        return 0;
    }
}

/* ll_read_fast for values that may be negative (the -1 "never sent"
 * and "no echo" sentinels); still never raises. */
static inline int
ll_read_signed(PyObject *o, long long *out)
{
    if (ll_read_fast(o, out))
        return 1;
    if (!PyLong_CheckExact(o))
        return 0;
    int overflow;
    *out = PyLong_AsLongLongAndOverflow(o, &overflow);
    return !overflow;
}

/* ll_read_fast on a slot that may be unset. */
static inline int
slot_fast(PyObject *obj, Py_ssize_t off, long long *out)
{
    PyObject *v = GETSLOT(obj, off);
    return v != NULL && ll_read_fast(v, out);
}

/* An int: from its digits, else through the conversion (which raises). */
static int
as_ll(PyObject *v, long long *out)
{
    if (ll_read_fast(v, out))
        return 0;
    *out = PyLong_AsLongLong(v);
    return *out == -1 && PyErr_Occurred() ? -1 : 0;
}

static int
slot_ll(PyObject *obj, Py_ssize_t off, long long *out)
{
    PyObject *v = GETSLOT(obj, off);
    if (v != NULL)
        return as_ll(v, out);
    PyErr_SetString(PyExc_AttributeError, "unset slot");
    return -1;
}

static int
slot_store_ll(PyObject *obj, Py_ssize_t off, long long v)
{
    PyObject *nv = PyLong_FromLongLong(v);
    if (nv == NULL)
        return -1;
    PyObject *old = GETSLOT(obj, off);
    GETSLOT(obj, off) = nv;
    Py_XDECREF(old);
    return 0;
}

/* bool(v), the two bools told apart by pointer. */
static inline int
truth(PyObject *v)
{
    return v == Py_True ? 1 : v == Py_False ? 0 : PyObject_IsTrue(v);
}

static int
slot_truth(PyObject *obj, Py_ssize_t off)
{
    PyObject *v = GETSLOT(obj, off);
    if (v == NULL) {
        PyErr_SetString(PyExc_AttributeError, "unset slot");
        return -1;
    }
    return truth(v);
}

static inline void
slot_store_obj(PyObject *obj, Py_ssize_t off, PyObject *v)
{
    Py_INCREF(v);
    PyObject *old = GETSLOT(obj, off);
    GETSLOT(obj, off) = v;
    Py_XDECREF(old);
}

static int
slot_store_bool(PyObject *obj, Py_ssize_t off, int truth)
{
    PyObject *nv = truth ? Py_True : Py_False;
    Py_INCREF(nv);
    PyObject *old = GETSLOT(obj, off);
    GETSLOT(obj, off) = nv;
    Py_XDECREF(old);
    return 0;
}

/* append that reuses the list's spare capacity (borrows item). */
static inline int
list_append_fast(PyObject *list, PyObject *item)
{
    PyListObject *lp = (PyListObject *)list;
    Py_ssize_t n = Py_SIZE(lp);
    if (n < lp->allocated) {
        Py_INCREF(item);
        lp->ob_item[n] = item;
        Py_SET_SIZE(lp, n + 1);
        return 0;
    }
    return PyList_Append(list, item);
}

static long long
monotonic_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (long long)ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

/* ceil(size_bytes * 8 * 1e9 / rate_bps) -- mirrors units.tx_time_ns. */
static long long
c_tx_time_ns(long long size_bytes, long long rate_bps)
{
    if (rate_bps <= 0) {
        PyErr_Format(PyExc_ValueError, "rate must be positive, got %lld", rate_bps);
        return -1;
    }
    long long num = size_bytes * 8LL * 1000000000LL;
    return (num + rate_bps - 1) / rate_bps;
}

/* ---------------------------------------------------------------------------
 * The event heap: a C array of {time, seq, fn, args} entries.
 *
 * Ordered by the unique (time, seq) pair, the order heapq gives the pure
 * engine's tuples. An entry owns fn and args; args == NULL marks an entry
 * whose fn is a CEvent (schedule*, the timer wheel), any other is called
 * as fn(*args) (schedule_anon, the ports). Nothing here calls Python: an
 * entry leaves the array before its references are dropped.
 * ------------------------------------------------------------------------- */

typedef struct {
    long long time, seq;
    PyObject *fn, *args;
} HeapEntry;

typedef struct {
    HeapEntry *items;
    Py_ssize_t len, cap;
} EventHeap;

static inline int
entry_lt(const HeapEntry *a, const HeapEntry *b)
{
    return a->time < b->time || (a->time == b->time && a->seq < b->seq);
}

/* Put item in the hole at pos, moving it up past larger parents but not
 * above start (heapq's _siftdown). */
static inline void
heap_place(HeapEntry *h, Py_ssize_t start, Py_ssize_t pos, HeapEntry item)
{
    while (pos > start) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (!entry_lt(&item, &h[parent]))
            break;
        h[pos] = h[parent];
        pos = parent;
    }
    h[pos] = item;
}

/* Fill the hole at pos with item: the smaller child moves up to a leaf,
 * then item is placed from there (heapq's _siftup). */
static void
heap_sift(HeapEntry *h, Py_ssize_t n, Py_ssize_t pos, HeapEntry item)
{
    Py_ssize_t start = pos, child = 2 * pos + 1;
    while (child < n) {
        if (child + 1 < n && entry_lt(&h[child + 1], &h[child]))
            child++;
        h[pos] = h[child];
        pos = child;
        child = 2 * pos + 1;
    }
    heap_place(h, start, pos, item);
}

/* Push an entry; takes new references to fn and args (NULL for a CEvent). */
static int
heap_push(EventHeap *heap, long long time, long long seq, PyObject *fn, PyObject *args)
{
    if (heap->len == heap->cap) {
        Py_ssize_t cap = heap->cap ? 2 * heap->cap : 256;
        HeapEntry *items = PyMem_Realloc(heap->items, cap * sizeof(HeapEntry));
        if (items == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        heap->items = items;
        heap->cap = cap;
    }
    Py_INCREF(fn);
    Py_XINCREF(args);
    heap_place(heap->items, 0, heap->len++, (HeapEntry){time, seq, fn, args});
    return 0;
}

/* Move the head of a non-empty heap to *out, which owns its references. */
static void
heap_pop(EventHeap *heap, HeapEntry *out)
{
    HeapEntry *h = heap->items;
    *out = h[0];
    Py_ssize_t n = --heap->len;
    if (n > 0)
        heap_sift(h, n, 0, h[n]);
}

static inline void
entry_release(HeapEntry *e)
{
    Py_DECREF(e->fn);
    Py_XDECREF(e->args);
}

/* Empty the heap, detached before the first reference drops. */
static void
heap_release(EventHeap *heap)
{
    EventHeap old = *heap;
    *heap = (EventHeap){NULL, 0, 0};
    for (Py_ssize_t i = 0; i < old.len; i++)
        entry_release(&old.items[i]);
    PyMem_Free(old.items);
}

/* ---------------------------------------------------------------------------
 * CEvent -- the cancellation handle (mirrors engine.Event).
 * ------------------------------------------------------------------------- */

typedef struct {
    PyObject_HEAD
    long long time;
    long long seq;
    PyObject *fn;
    PyObject *args;
    PyObject *engine;   /* CEngine (or None for detached events) */
    char cancelled;
    char in_wheel;
} CEventObject;

static PyTypeObject CEventType;
static PyTypeObject CEngineType;
static PyTypeObject KernelMethodType;

#define CEvent_CheckExact(op) (Py_TYPE(op) == &CEventType)
#define CEngine_CheckExact(op) (Py_TYPE(op) == &CEngineType)

/* Defined with the KernelMethod type below; lets the event loop jump
 * straight into a kernel's C entry point without call machinery. */
static int km_invoke_fast(PyObject *fn, PyObject *fargs);
/* Defined with the host kernel's send path: a flow's start() event. */
static int c_sender_start(PyObject *ep);

typedef struct {
    PyObject_HEAD
    EventHeap heap;
    PyObject *wheel;          /* TimerWheel(self) */
    long long seq;
    long long now;
    long long events_processed;
    long long heap_dead;
    long long wheel_min;
    long long port_rank;
    int running;
} CEngineObject;

static int cengine_note_cancel_internal(CEngineObject *self, CEventObject *event);

/* Free list of exact CEvent instances: the simulator churns through
 * one Event per schedule()/timer, so recycling the GC header is a
 * measurable win. Dead entries are linked through their fn slot. */
#define CEVENT_MAXFREELIST 128
static CEventObject *cevent_free_head = NULL;
static int cevent_numfree = 0;

/* Internal constructor used by CEngine.schedule*. */
static CEventObject *
cevent_make(long long time, long long seq, PyObject *fn, PyObject *args,
            PyObject *engine)
{
    CEventObject *ev;
    if (cevent_free_head != NULL) {
        ev = cevent_free_head;
        cevent_free_head = (CEventObject *)ev->fn;
        cevent_numfree--;
        _Py_NewReference((PyObject *)ev);
        PyObject_GC_Track((PyObject *)ev);
    }
    else {
        ev = (CEventObject *)CEventType.tp_alloc(&CEventType, 0);
        if (ev == NULL)
            return NULL;
    }
    ev->time = time;
    ev->seq = seq;
    Py_INCREF(fn);
    ev->fn = fn;
    Py_INCREF(args);
    ev->args = args;
    Py_INCREF(engine);
    ev->engine = engine;
    ev->cancelled = 0;
    ev->in_wheel = 0;
    return ev;
}

static int
cevent_traverse(CEventObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->fn);
    Py_VISIT(self->args);
    Py_VISIT(self->engine);
    return 0;
}

static int
cevent_clear(CEventObject *self)
{
    Py_CLEAR(self->fn);
    Py_CLEAR(self->args);
    Py_CLEAR(self->engine);
    return 0;
}

static void
cevent_dealloc(CEventObject *self)
{
    PyObject_GC_UnTrack(self);
    cevent_clear(self);
    if (CEvent_CheckExact(self) && cevent_numfree < CEVENT_MAXFREELIST) {
        self->fn = (PyObject *)cevent_free_head;
        cevent_free_head = self;
        cevent_numfree++;
    }
    else {
        Py_TYPE(self)->tp_free((PyObject *)self);
    }
}

static PyObject *
cevent_cancel(CEventObject *self, PyObject *Py_UNUSED(ignored))
{
    if (self->cancelled)
        Py_RETURN_NONE;
    self->cancelled = 1;
    /* cevent_make is the only constructor: the engine is a CEngine */
    if (self->engine != NULL &&
        cengine_note_cancel_internal((CEngineObject *)self->engine, self) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
cevent_repr(CEventObject *self)
{
    PyObject *qn = self->fn ? PyObject_GetAttrString(self->fn, "__qualname__") : NULL;
    if (qn == NULL) {
        PyErr_Clear();
        qn = self->fn ? PyObject_Repr(self->fn) : PyUnicode_FromString("?");
        if (qn == NULL)
            return NULL;
    }
    PyObject *r = PyUnicode_FromFormat(
        "<CEvent t=%lld #%lld %U%s%s>", self->time, self->seq, qn,
        self->in_wheel ? " wheel" : "", self->cancelled ? " cancelled" : "");
    Py_DECREF(qn);
    return r;
}

/* Read-only but for in_wheel, which the (Python) timer wheel flips;
 * heap entries carry their own (time, seq), so nothing compares or
 * re-times an event. fn/args/engine read None once cleared (engine
 * when the event fires). */
static PyMemberDef cevent_members[] = {
    {"time", T_LONGLONG, offsetof(CEventObject, time), READONLY, NULL},
    {"seq", T_LONGLONG, offsetof(CEventObject, seq), READONLY, NULL},
    {"fn", T_OBJECT, offsetof(CEventObject, fn), READONLY, NULL},
    {"args", T_OBJECT, offsetof(CEventObject, args), READONLY, NULL},
    {"engine", T_OBJECT, offsetof(CEventObject, engine), READONLY, NULL},
    {"cancelled", T_BOOL, offsetof(CEventObject, cancelled), READONLY, NULL},
    {"in_wheel", T_BOOL, offsetof(CEventObject, in_wheel), 0, NULL},
    {NULL},
};

static PyMethodDef cevent_methods[] = {
    {"cancel", (PyCFunction)cevent_cancel, METH_NOARGS,
     "Revoke the event. Safe to call more than once or after firing."},
    {NULL},
};

static PyTypeObject CEventType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ckernel.CEvent",
    .tp_basicsize = sizeof(CEventObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "A scheduled callback (compiled engine's Event).",
    .tp_dealloc = (destructor)cevent_dealloc,
    .tp_traverse = (traverseproc)cevent_traverse,
    .tp_clear = (inquiry)cevent_clear,
    .tp_repr = (reprfunc)cevent_repr,
    .tp_methods = cevent_methods,
    .tp_members = cevent_members,
};

/* ---------------------------------------------------------------------------
 * CEngine -- drop-in compiled Engine.
 * ------------------------------------------------------------------------- */

/* Drop the cancelled entries. The kept ones are a heap again before the
 * first dropped one is released: its finaliser may schedule. */
static int
cengine_compact(CEngineObject *self)
{
    EventHeap *heap = &self->heap;
    PyObject **dropped = PyMem_Malloc(heap->len * sizeof(PyObject *));
    if (dropped == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    Py_ssize_t kept = 0, ndropped = 0;
    for (Py_ssize_t i = 0; i < heap->len; i++) {
        HeapEntry *e = &heap->items[i];
        if (e->args == NULL && ((CEventObject *)e->fn)->cancelled)
            dropped[ndropped++] = e->fn;
        else
            heap->items[kept++] = *e;
    }
    heap->len = kept;
    for (Py_ssize_t i = kept / 2 - 1; i >= 0; i--)
        heap_sift(heap->items, kept, i, heap->items[i]);
    self->heap_dead = 0;
    for (Py_ssize_t i = 0; i < ndropped; i++)
        Py_DECREF(dropped[i]);
    PyMem_Free(dropped);
    return 0;
}

static int
cengine_note_cancel_internal(CEngineObject *self, CEventObject *event)
{
    if (event->in_wheel) {
        PyObject *live = PyObject_GetAttr(self->wheel, s_live);
        if (live == NULL)
            return -1;
        long long lv = PyLong_AsLongLong(live);
        Py_DECREF(live);
        if (lv == -1 && PyErr_Occurred())
            return -1;
        PyObject *nv = PyLong_FromLongLong(lv - 1);
        if (nv == NULL)
            return -1;
        int r = PyObject_SetAttr(self->wheel, s_live, nv);
        Py_DECREF(nv);
        return r;
    }
    long long dead = self->heap_dead + 1;
    self->heap_dead = dead;
    if (dead >= COMPACT_MIN_DEAD_C && dead * 2 > self->heap.len)
        return cengine_compact(self);
    return 0;
}

/* wheel.flush(limit) */
static int
cengine_wheel_flush(CEngineObject *self, long long limit)
{
    PyObject *lo = PyLong_FromLongLong(limit);
    if (lo == NULL)
        return -1;
    PyObject *args[2] = {self->wheel, lo};
    PyObject *r = PyObject_VectorcallMethod(s_flush, args, 2, NULL);
    Py_DECREF(lo);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* peek_time body; *have = 0 when idle. */
static int
cengine_peek_internal(CEngineObject *self, long long *out, int *have)
{
    EventHeap *heap = &self->heap;
    for (;;) {
        while (heap->len > 0 && heap->items[0].args == NULL &&
               ((CEventObject *)heap->items[0].fn)->cancelled) {
            HeapEntry e;
            heap_pop(heap, &e);
            self->heap_dead -= 1;
            entry_release(&e);
        }
        long long wmin = self->wheel_min;
        if (wmin == NEVER_LL || (heap->len > 0 && heap->items[0].time < wmin))
            break;
        /* A wheel slot may hold the earliest live event. */
        if (cengine_wheel_flush(self, heap->len > 0 ? heap->items[0].time : wmin) < 0)
            return -1;
    }
    *have = heap->len > 0;
    if (*have)
        *out = heap->items[0].time;
    return 0;
}

/* fn(*fargs) by vectorcall over the tuple's items (every heap entry and
 * CEvent carries an args tuple: _push checks). */
static inline PyObject *
call_with_tuple(PyObject *fn, PyObject *fargs)
{
    return PyObject_Vectorcall(fn, &PyTuple_GET_ITEM(fargs, 0), PyTuple_GET_SIZE(fargs), NULL);
}

/* One event dispatch, with optional attribution. Returns -1 on error. */
static int
cengine_dispatch(PyObject *fn, PyObject *fargs, PyObject *attr)
{
    PyObject *res;
    if (attr == NULL || attr == Py_None) {
        if (Py_TYPE(fn) == &KernelMethodType && PyTuple_CheckExact(fargs))
            return km_invoke_fast(fn, fargs);
        /* A byte-stream flow's start(): the initial window leaves from C
         * when the host kernel can run it, else the call below. */
        if (PyMethod_Check(fn) && PyMethod_GET_FUNCTION(fn) == SenderStartFn &&
            PyTuple_CheckExact(fargs) && PyTuple_GET_SIZE(fargs) == 0) {
            int started = c_sender_start(PyMethod_GET_SELF(fn));
            if (started != 0)
                return started < 0 ? -1 : 0;
        }
        res = call_with_tuple(fn, fargs);
        if (res == NULL)
            return -1;
        Py_DECREF(res);
        return 0;
    }
    long long t0 = monotonic_ns();
    res = call_with_tuple(fn, fargs);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    long long dt = monotonic_ns() - t0;
    PyObject *key = PyObject_GetAttr(fn, s_qualname);
    if (key == NULL || key == Py_None) {
        PyErr_Clear();
        Py_XDECREF(key);
        key = PyObject_Repr(fn);
        if (key == NULL)
            return -1;
    }
    PyObject *rec = PyDict_GetItemWithError(attr, key);
    if (rec == NULL) {
        if (PyErr_Occurred()) {
            Py_DECREF(key);
            return -1;
        }
        PyObject *calls = PyLong_FromLong(1);
        PyObject *total = PyLong_FromLongLong(dt);
        PyObject *lst = (calls && total) ? PyList_New(2) : NULL;
        if (lst == NULL) {
            Py_XDECREF(calls);
            Py_XDECREF(total);
            Py_DECREF(key);
            return -1;
        }
        PyList_SET_ITEM(lst, 0, calls);
        PyList_SET_ITEM(lst, 1, total);
        int r = PyDict_SetItem(attr, key, lst);
        Py_DECREF(lst);
        Py_DECREF(key);
        return r;
    }
    Py_DECREF(key);
    /* rec is [calls, total_ns] */
    long long calls = PyLong_AsLongLong(PyList_GET_ITEM(rec, 0));
    long long total = PyLong_AsLongLong(PyList_GET_ITEM(rec, 1));
    if ((calls == -1 || total == -1) && PyErr_Occurred())
        return -1;
    PyObject *nc = PyLong_FromLongLong(calls + 1);
    PyObject *nt = PyLong_FromLongLong(total + dt);
    if (nc == NULL || nt == NULL) {
        Py_XDECREF(nc);
        Py_XDECREF(nt);
        return -1;
    }
    PyList_SetItem(rec, 0, nc);
    PyList_SetItem(rec, 1, nt);
    return 0;
}

/* Shared run loop. gc_dance/use_attr distinguish run() from run_window(). */
static PyObject *
cengine_run_common(CEngineObject *self, int until_given, long long until,
                   long long stop_at, int gc_dance)
{
    if (self->running) {
        PyErr_SetString(SimulationErrorObj, "engine is not reentrant");
        return NULL;
    }
    self->running = 1;
    long long processed = 0;
    EventHeap *heap = &self->heap;
    PyObject *attr = gc_dance ? Attribution : NULL;
    long long horizon = until_given ? until : NEVER_LL;
    PyObject *gc_prev = NULL;
    int gc_was_enabled = 0;
    int status = 0;

    if (gc_dance) {
        gc_prev = PyObject_CallObject(GcGetThreshold, NULL);
        if (gc_prev == NULL) {
            self->running = 0;
            return NULL;
        }
        PyObject *r = PyObject_Call(GcSetThreshold, GcRunThresholds, NULL);
        if (r == NULL) {
            Py_DECREF(gc_prev);
            self->running = 0;
            return NULL;
        }
        Py_DECREF(r);
        PyObject *en = PyObject_CallObject(GcIsEnabled, NULL);
        if (en == NULL)
            status = -1;
        else {
            gc_was_enabled = PyObject_IsTrue(en);
            Py_DECREF(en);
            if (gc_was_enabled < 0)
                status = -1;
        }
        if (status == 0) {
            r = PyObject_CallObject(GcDisable, NULL);
            if (r == NULL)
                status = -1;
            else
                Py_DECREF(r);
        }
    }

    while (status == 0) {
        if (heap->len > 0) {
            /* The head stays in place until it runs: a due wheel slot or
             * the horizon leave it there. */
            long long time = heap->items[0].time;
            if (self->wheel_min <= time) {
                if (cengine_wheel_flush(self, time) < 0)
                    status = -1;
                continue;
            }
            if (time > horizon)
                break;
            HeapEntry e;
            heap_pop(heap, &e);
            PyObject *fn = e.fn, *fargs = e.args;
            if (fargs == NULL) {
                CEventObject *ev = (CEventObject *)fn;
                if (ev->cancelled) {
                    self->heap_dead -= 1;
                    Py_DECREF(ev);
                    continue;
                }
                /* Fired: a later cancel() has no heap entry to count. */
                Py_CLEAR(ev->engine);
                fn = ev->fn;
                fargs = ev->args;
            }
            self->now = time;
            int r = cengine_dispatch(fn, fargs, attr);
            entry_release(&e);
            if (r < 0) {
                status = -1;
                break;
            }
            processed += 1;
            if (processed == stop_at)
                break;
        }
        else {
            long long wmin = self->wheel_min;
            if (wmin == NEVER_LL || wmin > horizon)
                break;
            if (cengine_wheel_flush(self, wmin) < 0) {
                status = -1;
                break;
            }
        }
    }

    /* finally: restore running flag and GC state (even on error). */
    self->running = 0;
    if (gc_dance) {
        PyObject *exc_type, *exc_val, *exc_tb;
        PyErr_Fetch(&exc_type, &exc_val, &exc_tb);
        if (gc_prev != NULL) {
            PyObject *r = PyObject_Call(GcSetThreshold, gc_prev, NULL);
            Py_XDECREF(r);
            Py_DECREF(gc_prev);
        }
        if (gc_was_enabled > 0) {
            PyObject *r = PyObject_CallObject(GcEnable, NULL);
            Py_XDECREF(r);
        }
        PyErr_Restore(exc_type, exc_val, exc_tb);
    }
    if (status < 0)
        return NULL;

    if (until_given && self->now < until) {
        long long peek;
        int have;
        if (cengine_peek_internal(self, &peek, &have) < 0)
            return NULL;
        if (!have || peek > until)
            self->now = until;
    }
    self->events_processed += processed;
    return PyLong_FromLongLong(processed);
}

static PyObject *
cengine_run(CEngineObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"until", "max_events", NULL};
    PyObject *until_o = Py_None, *max_o = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|OO", kwlist, &until_o, &max_o))
        return NULL;
    int until_given = until_o != Py_None;
    long long until = 0, stop_at = -1;
    if (until_given) {
        until = PyLong_AsLongLong(until_o);
        if (until == -1 && PyErr_Occurred())
            return NULL;
    }
    if (max_o != Py_None) {
        stop_at = PyLong_AsLongLong(max_o);
        if (stop_at == -1 && PyErr_Occurred())
            return NULL;
    }
    return cengine_run_common(self, until_given, until, stop_at, 1);
}

static PyObject *
cengine_run_window(CEngineObject *self, PyObject *arg)
{
    long long until = PyLong_AsLongLong(arg);
    if (until == -1 && PyErr_Occurred())
        return NULL;
    return cengine_run_common(self, 1, until, -1, 0);
}

static PyObject *
cengine_step(CEngineObject *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *n = cengine_run_common(self, 0, 0, 1, 1);
    if (n == NULL)
        return NULL;
    long long v = PyLong_AsLongLong(n);
    Py_DECREF(n);
    if (v == -1 && PyErr_Occurred())
        return NULL;
    return PyBool_FromLong(v == 1);
}

/* -- CEngine scheduling ---------------------------------------------------- */

/* Push a fresh CEvent's entry; returns the event. */
static PyObject *
cengine_schedule_event(CEngineObject *self, long long time, PyObject *fn,
                       PyObject *fargs)
{
    long long seq = self->seq;
    self->seq = seq + 1;
    CEventObject *ev = cevent_make(time, seq, fn, fargs, (PyObject *)self);
    if (ev == NULL)
        return NULL;
    if (heap_push(&self->heap, time, seq, (PyObject *)ev, NULL) < 0) {
        Py_DECREF(ev);
        return NULL;
    }
    return (PyObject *)ev;
}

/* Build the callback-args tuple from fastcall args[skip:]. */
static PyObject *
pack_rest(PyObject *const *args, Py_ssize_t nargs, Py_ssize_t skip)
{
    if (nargs == skip) {
        Py_INCREF(EmptyTuple);
        return EmptyTuple;
    }
    PyObject *t = PyTuple_New(nargs - skip);
    if (t == NULL)
        return NULL;
    for (Py_ssize_t i = skip; i < nargs; i++) {
        Py_INCREF(args[i]);
        PyTuple_SET_ITEM(t, i - skip, args[i]);
    }
    return t;
}

static PyObject *
cengine_schedule(CEngineObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError, "schedule(delay, fn, *args)");
        return NULL;
    }
    long long delay = PyLong_AsLongLong(args[0]);
    if (delay == -1 && PyErr_Occurred())
        return NULL;
    if (delay < 0) {
        PyErr_Format(SimulationErrorObj, "cannot schedule %lld ns in the past", delay);
        return NULL;
    }
    PyObject *fargs = pack_rest(args, nargs, 2);
    if (fargs == NULL)
        return NULL;
    PyObject *ev = cengine_schedule_event(self, self->now + delay, args[1], fargs);
    Py_DECREF(fargs);
    return ev;
}

static PyObject *
cengine_schedule_at(CEngineObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError, "schedule_at(time, fn, *args)");
        return NULL;
    }
    long long time = PyLong_AsLongLong(args[0]);
    if (time == -1 && PyErr_Occurred())
        return NULL;
    if (time < self->now) {
        PyErr_Format(SimulationErrorObj,
                     "cannot schedule at t=%lld, current time is %lld",
                     time, self->now);
        return NULL;
    }
    PyObject *fargs = pack_rest(args, nargs, 2);
    if (fargs == NULL)
        return NULL;
    PyObject *ev = cengine_schedule_event(self, time, args[1], fargs);
    Py_DECREF(fargs);
    return ev;
}

static PyObject *
cengine_schedule_anon(CEngineObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError, "schedule_anon(delay, fn, *args)");
        return NULL;
    }
    long long delay = PyLong_AsLongLong(args[0]);
    if (delay == -1 && PyErr_Occurred())
        return NULL;
    if (delay < 0) {
        PyErr_Format(SimulationErrorObj, "cannot schedule %lld ns in the past", delay);
        return NULL;
    }
    long long seq = self->seq;
    self->seq = seq + 1;
    PyObject *fargs = pack_rest(args, nargs, 2);
    if (fargs == NULL)
        return NULL;
    int r = heap_push(&self->heap, self->now + delay, seq, args[1], fargs);
    Py_DECREF(fargs);
    if (r < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
cengine_schedule_timer_common(CEngineObject *self, long long time,
                              PyObject *fn, PyObject *fargs)
{
    long long seq = self->seq;
    self->seq = seq + 1;
    CEventObject *ev = cevent_make(time, seq, fn, fargs, (PyObject *)self);
    if (ev == NULL)
        return NULL;
    PyObject *args[2] = {self->wheel, (PyObject *)ev};
    PyObject *r = PyObject_VectorcallMethod(s_add, args, 2, NULL);
    if (r == NULL) {
        Py_DECREF(ev);
        return NULL;
    }
    Py_DECREF(r);
    return (PyObject *)ev;
}

static PyObject *
cengine_schedule_timer(CEngineObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError, "schedule_timer(delay, fn, *args)");
        return NULL;
    }
    long long delay = PyLong_AsLongLong(args[0]);
    if (delay == -1 && PyErr_Occurred())
        return NULL;
    if (delay < 0) {
        PyErr_Format(SimulationErrorObj, "cannot schedule %lld ns in the past", delay);
        return NULL;
    }
    PyObject *fargs = pack_rest(args, nargs, 2);
    if (fargs == NULL)
        return NULL;
    PyObject *ev = cengine_schedule_timer_common(self, self->now + delay,
                                                 args[1], fargs);
    Py_DECREF(fargs);
    return ev;
}

static PyObject *
cengine_schedule_timer_at(CEngineObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError, "schedule_timer_at(time, fn, *args)");
        return NULL;
    }
    long long time = PyLong_AsLongLong(args[0]);
    if (time == -1 && PyErr_Occurred())
        return NULL;
    if (time < self->now) {
        PyErr_Format(SimulationErrorObj,
                     "cannot schedule at t=%lld, current time is %lld",
                     time, self->now);
        return NULL;
    }
    PyObject *fargs = pack_rest(args, nargs, 2);
    if (fargs == NULL)
        return NULL;
    PyObject *ev = cengine_schedule_timer_common(self, time, args[1], fargs);
    Py_DECREF(fargs);
    return ev;
}

/* -- CEngine misc methods -------------------------------------------------- */

static PyObject *
cengine_peek_time(CEngineObject *self, PyObject *Py_UNUSED(ignored))
{
    long long t;
    int have;
    if (cengine_peek_internal(self, &t, &have) < 0)
        return NULL;
    if (!have)
        Py_RETURN_NONE;
    return PyLong_FromLongLong(t);
}

/* _push(entry): the one way Python code adds a raw heap entry, the
 * layouts the pure engine's heap holds. */
static PyObject *
cengine_push(CEngineObject *self, PyObject *entry)
{
    long long time, seq;
    Py_ssize_t n = PyTuple_CheckExact(entry) ? PyTuple_GET_SIZE(entry) : 0;
    if ((n == 3 || n == 4) && ll_read_fast(PyTuple_GET_ITEM(entry, 0), &time) &&
        ll_read_fast(PyTuple_GET_ITEM(entry, 1), &seq) &&
        (n == 3 ? CEvent_CheckExact(PyTuple_GET_ITEM(entry, 2))
                : PyTuple_Check(PyTuple_GET_ITEM(entry, 3)))) {
        if (heap_push(&self->heap, time, seq, PyTuple_GET_ITEM(entry, 2),
                      n == 4 ? PyTuple_GET_ITEM(entry, 3) : NULL) < 0)
            return NULL;
        Py_RETURN_NONE;
    }
    PyErr_SetString(PyExc_TypeError, "CEngine._push takes (time, seq, CEvent) or "
                    "(time, seq, fn, args tuple), time and seq small non-negative ints");
    return NULL;
}

/* _pusher: (CEngine._push, self), bound once by the pushers. */
static PyObject *PushDescr;

static PyObject *
cengine_get_pusher(CEngineObject *self, void *closure)
{
    return PyTuple_Pack(2, PushDescr, (PyObject *)self);
}

/* -- CEngine lifecycle, getsets, type ------------------------------------- */

static PyObject *
cengine_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    CEngineObject *self = (CEngineObject *)type->tp_alloc(type, 0);  /* zeroed */
    if (self != NULL)
        self->wheel_min = NEVER_LL;
    return (PyObject *)self;
}

static int
cengine_init(CEngineObject *self, PyObject *args, PyObject *kwds)
{
    if ((args && PyTuple_GET_SIZE(args)) || (kwds && PyDict_GET_SIZE(kwds))) {
        PyErr_SetString(PyExc_TypeError, "CEngine() takes no arguments");
        return -1;
    }
    heap_release(&self->heap);
    PyObject *wheel = PyObject_CallFunctionObjArgs(TimerWheelCls,
                                                   (PyObject *)self, NULL);
    if (wheel == NULL)
        return -1;
    Py_XSETREF(self->wheel, wheel);
    self->seq = 0;
    self->now = 0;
    self->events_processed = 0;
    self->heap_dead = 0;
    self->wheel_min = NEVER_LL;
    self->port_rank = 0;
    self->running = 0;
    return 0;
}

static int
cengine_traverse(CEngineObject *self, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < self->heap.len; i++) {
        Py_VISIT(self->heap.items[i].fn);
        Py_VISIT(self->heap.items[i].args);
    }
    Py_VISIT(self->wheel);
    return 0;
}

static int
cengine_clear_gc(CEngineObject *self)
{
    heap_release(&self->heap);
    Py_CLEAR(self->wheel);
    return 0;
}

static void
cengine_dealloc(CEngineObject *self)
{
    PyObject_GC_UnTrack(self);
    cengine_clear_gc(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
cengine_get_pending(CEngineObject *self, void *closure)
{
    PyObject *live_o = PyObject_GetAttr(self->wheel, s_live);
    if (live_o == NULL)
        return NULL;
    long long wlive = PyLong_AsLongLong(live_o);
    Py_DECREF(live_o);
    if (wlive == -1 && PyErr_Occurred())
        return NULL;
    long long live = self->heap.len - self->heap_dead + wlive;
    return PyLong_FromLongLong(live > 0 ? live : 0);
}

static PyObject *
cengine_get_pending_total(CEngineObject *self, void *closure)
{
    PyObject *tot = PyObject_CallMethod(self->wheel, "total_entries", NULL);
    if (tot == NULL)
        return NULL;
    long long wt = PyLong_AsLongLong(tot);
    Py_DECREF(tot);
    if (wt == -1 && PyErr_Occurred())
        return NULL;
    return PyLong_FromLongLong(self->heap.len + wt);
}

static PyGetSetDef cengine_getset[] = {
    {"pending", (getter)cengine_get_pending, NULL, NULL, NULL},
    {"pending_total", (getter)cengine_get_pending_total, NULL, NULL, NULL},
    {"_pusher", (getter)cengine_get_pusher, NULL, NULL, NULL},
    {NULL},
};

/* The Engine attributes link.py, the timer wheel and sharding read and
 * write directly. */
#define ENGINE_LL(name, field, flags) \
    {name, T_LONGLONG, offsetof(CEngineObject, field), flags, NULL}
static PyMemberDef cengine_members[] = {
    ENGINE_LL("now", now, 0),
    ENGINE_LL("_seq", seq, 0),
    ENGINE_LL("_events_processed", events_processed, 0),
    ENGINE_LL("events_processed", events_processed, READONLY),
    ENGINE_LL("_heap_dead", heap_dead, 0),
    ENGINE_LL("_wheel_min", wheel_min, 0),
    ENGINE_LL("_port_rank", port_rank, 0),
    {"_wheel", T_OBJECT, offsetof(CEngineObject, wheel), READONLY, NULL},
    {NULL},
};

static PyMethodDef cengine_methods[] = {
    {"schedule", (PyCFunction)(void (*)(void))cengine_schedule, METH_FASTCALL,
     "Schedule fn(*args) to run delay ns from now."},
    {"schedule_at", (PyCFunction)(void (*)(void))cengine_schedule_at, METH_FASTCALL,
     "Schedule fn(*args) at absolute simulated time."},
    {"schedule_anon", (PyCFunction)(void (*)(void))cengine_schedule_anon, METH_FASTCALL,
     "Schedule fn(*args) with no cancellation handle."},
    {"schedule_timer", (PyCFunction)(void (*)(void))cengine_schedule_timer, METH_FASTCALL,
     "Schedule a coarse timer delay ns from now (timer wheel)."},
    {"schedule_timer_at", (PyCFunction)(void (*)(void))cengine_schedule_timer_at,
     METH_FASTCALL, "Absolute-time variant of schedule_timer."},
    {"run", (PyCFunction)(void (*)(void))cengine_run, METH_VARARGS | METH_KEYWORDS,
     "Run until the queue drains, `until` ns is reached, or max_events."},
    {"run_window", (PyCFunction)cengine_run_window, METH_O,
     "Run one conservative-lookahead window: every event <= until."},
    {"step", (PyCFunction)cengine_step, METH_NOARGS,
     "Process exactly one (non-cancelled) event."},
    {"peek_time", (PyCFunction)cengine_peek_time, METH_NOARGS,
     "Timestamp of the next live event, or None when idle."},
    {"_push", (PyCFunction)cengine_push, METH_O,
     "Push a raw (time, seq, event) or (time, seq, fn, args) heap entry."},
    {NULL},
};

static PyTypeObject CEngineType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ckernel.CEngine",
    .tp_basicsize = sizeof(CEngineObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled discrete-event engine (drop-in for repro.sim.engine.Engine).",
    .tp_new = cengine_new,
    .tp_init = (initproc)cengine_init,
    .tp_dealloc = (destructor)cengine_dealloc,
    .tp_traverse = (traverseproc)cengine_traverse,
    .tp_clear = (inquiry)cengine_clear_gc,
    .tp_methods = cengine_methods,
    .tp_members = cengine_members,
    .tp_getset = cengine_getset,
};

/* ---------------------------------------------------------------------------
 * Kernels: per-instance compiled fast paths bound by
 * repro.sim.backend.optimize_network.  Each exposes KernelMethod
 * callables; binding is attribute shadowing, so the Python methods
 * remain reachable and audit/interceptor rebinding keeps working.
 * ------------------------------------------------------------------------- */

enum {
    KM_SWITCH_RECEIVE,
    KM_SWITCH_POLL,
    KM_HOST_SEND,
    KM_HOST_POLL,
    KM_HOST_SINK,
    KM_PORT_TX_DONE,
    KM_PORT_DRAIN,
};

typedef struct {
    PyObject_HEAD
    PyObject *kernel;    /* owning SwitchKernel/HostKernel/PortKernel */
    int which;
    PyObject *qualname;
} KernelMethodObject;

typedef struct {
    PyObject_HEAD
    PyObject *port;              /* exact repro.net.link.Port */
    CEngineObject *engine;
    PyObject *inflight;          /* port._inflight deque */
    PyObject *tx_done_m, *drain_m;
    long long delay_ns;
} PortKernelObject;

typedef struct {
    PyObject_HEAD
    PyObject *sw;
    CEngineObject *engine;
    PyObject *routes;            /* fib._routes dict (mutated in place) */
    PyObject *fib_lookup;        /* bound fib.lookup */
    long long ecmp_switch_id;    /* fib.switch_id when lookup is the static hash, else -1 */
    PyObject *buffer;
    PyObject *stats;
    PyObject *ports;             /* device.ports list */
    PyObject *port_queues, *rr;  /* _port_queues (a list of class queues per port), _rr */
    PyObject *pfc_on_admit, *pfc_on_release;  /* bound, or NULL when no PFC */
    PyObject *should_mark;       /* bound ecn.should_mark; NULL for StepEcn or no ECN */
    long long ecn_k;             /* StepEcn's k_bytes, -1 otherwise */
    long long color_k;           /* config.color_threshold_bytes, -1 for None */
    PyObject *color_classes;     /* config.color_classes */
    int int_enabled;             /* config.int_enabled */
    PyObject *receive_m, *poll_m;
} SwitchKernelObject;

typedef struct {
    PyObject_HEAD
    PyObject *host;
    CEngineObject *engine;
    PyObject *nicqueue;          /* host.nic.queue deque */
    PyObject *endpoints;         /* host.endpoints dict (mutated in place) */
    PyObject *port;              /* host.port */
    PyObject *send_m, *poll_m, *sink_m;
} HostKernelObject;

static PyTypeObject KernelMethodType;
static PyTypeObject PortKernelType;
static PyTypeObject SwitchKernelType;
static PyTypeObject HostKernelType;

static int dict_add(PyObject *d, PyObject *name, long long delta);
static int c_switch_receive(SwitchKernelObject *sk, PyObject *packet, PyObject *in_port);
static PyObject *c_switch_poll(SwitchKernelObject *sk, PyObject *port);
static int c_host_send(HostKernelObject *hk, PyObject *packet);
static PyObject *c_host_poll(HostKernelObject *hk, PyObject *port);
static int c_host_sink(HostKernelObject *hk, PyObject *packet, PyObject *in_port);
static int c_port_tx_done(PortKernelObject *pk, PyObject *packet);
static int c_port_drain(PortKernelObject *pk);
static int pk_kick(PortKernelObject *pk);

/* -- KernelMethod ---------------------------------------------------------- */

static PyObject *
km_new_internal(PyObject *kernel, int which, const char *qualname)
{
    KernelMethodObject *self =
        (KernelMethodObject *)KernelMethodType.tp_alloc(&KernelMethodType, 0);
    if (self == NULL)
        return NULL;
    Py_INCREF(kernel);
    self->kernel = kernel;
    self->which = which;
    self->qualname = PyUnicode_InternFromString(qualname);
    if (self->qualname == NULL) {
        Py_DECREF(self);
        return NULL;
    }
    return (PyObject *)self;
}

/* A call from Python: the two polls return their packet, everything
 * else goes the event loop's way and returns None. */
static PyObject *
km_call(KernelMethodObject *self, PyObject *args, PyObject *kwargs)
{
    if (kwargs != NULL && PyDict_GET_SIZE(kwargs) != 0) {
        PyErr_SetString(PyExc_TypeError, "kernel methods take no keyword arguments");
        return NULL;
    }
    if (PyTuple_GET_SIZE(args) == 1 && self->which == KM_SWITCH_POLL)
        return c_switch_poll((SwitchKernelObject *)self->kernel, PyTuple_GET_ITEM(args, 0));
    if (PyTuple_GET_SIZE(args) == 1 && self->which == KM_HOST_POLL)
        return c_host_poll((HostKernelObject *)self->kernel, PyTuple_GET_ITEM(args, 0));
    if (km_invoke_fast((PyObject *)self, args) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* Event-loop fast path: dispatch a scheduled kernel method straight to
 * its C entry point (no argument tuple re-packing, no call protocol).
 * Results of poll-style methods are discarded like any event callback's
 * return value. */
static int
km_invoke_fast(PyObject *fn, PyObject *fargs)
{
    KernelMethodObject *self = (KernelMethodObject *)fn;
    Py_ssize_t n = PyTuple_GET_SIZE(fargs);
    PyObject *res;
    switch (self->which) {
    case KM_PORT_DRAIN:
        if (n != 0)
            break;
        return c_port_drain((PortKernelObject *)self->kernel);
    case KM_PORT_TX_DONE:
        if (n != 1)
            break;
        return c_port_tx_done((PortKernelObject *)self->kernel,
                              PyTuple_GET_ITEM(fargs, 0));
    case KM_SWITCH_RECEIVE:
        if (n != 2)
            break;
        return c_switch_receive((SwitchKernelObject *)self->kernel,
                                PyTuple_GET_ITEM(fargs, 0),
                                PyTuple_GET_ITEM(fargs, 1));
    case KM_SWITCH_POLL:
    case KM_HOST_POLL:
        if (n != 1)
            break;
        res = self->which == KM_SWITCH_POLL
            ? c_switch_poll((SwitchKernelObject *)self->kernel, PyTuple_GET_ITEM(fargs, 0))
            : c_host_poll((HostKernelObject *)self->kernel, PyTuple_GET_ITEM(fargs, 0));
        Py_XDECREF(res);
        return res == NULL ? -1 : 0;
    case KM_HOST_SEND:
        if (n != 1)
            break;
        return c_host_send((HostKernelObject *)self->kernel,
                           PyTuple_GET_ITEM(fargs, 0));
    case KM_HOST_SINK:
        if (n != 2)
            break;
        return c_host_sink((HostKernelObject *)self->kernel,
                           PyTuple_GET_ITEM(fargs, 0),
                           PyTuple_GET_ITEM(fargs, 1));
    default:
        PyErr_SetString(PyExc_SystemError, "corrupt kernel method");
        return -1;
    }
    PyErr_Format(PyExc_TypeError, "%U: wrong number of arguments", self->qualname);
    return -1;
}

static int
km_traverse(KernelMethodObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->kernel);
    return 0;
}

static int
km_clear(KernelMethodObject *self)
{
    Py_CLEAR(self->kernel);
    Py_CLEAR(self->qualname);
    return 0;
}

static void
km_dealloc(KernelMethodObject *self)
{
    PyObject_GC_UnTrack(self);
    km_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMemberDef km_members[] = {  /* the profiler's attribution key */
    {"__qualname__", T_OBJECT, offsetof(KernelMethodObject, qualname), READONLY, NULL},
    {NULL},
};

static PyTypeObject KernelMethodType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ckernel.KernelMethod",
    .tp_basicsize = sizeof(KernelMethodObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Bound compiled kernel entry point.",
    .tp_call = (ternaryfunc)km_call,
    .tp_dealloc = (destructor)km_dealloc,
    .tp_traverse = (traverseproc)km_traverse,
    .tp_clear = (inquiry)km_clear,
    .tp_members = km_members,
};

/* -- shared kernel helpers -------------------------------------------------- */

/* deque.append(item) / appendleft(item) and deque.popleft(), through the
 * method descriptors (which raise for anything but a deque). */
static int
deque_push(PyObject *method, PyObject *dq, PyObject *item)
{
    PyObject *args[2] = {dq, item};
    PyObject *r = PyObject_Vectorcall(method, args, 2, NULL);
    Py_XDECREF(r);
    return r == NULL ? -1 : 0;
}

static inline PyObject *
deque_popleft(PyObject *dq)
{
    return PyObject_Vectorcall(DequePopleft, &dq, 1, NULL);
}

static inline Py_ssize_t
deque_len(PyObject *dq)
{
    return Py_IS_TYPE(dq, DequeCls) ? Py_SIZE(dq) : PyObject_Size(dq);
}

/* The instance dict of obj (made from its inline values on first use),
 * NULL without an error when it has none. */
static inline PyObject *
inst_dict(PyObject *obj)
{
    PyObject **dictptr = _PyObject_GetDictPtr(obj);
    return dictptr == NULL ? NULL : *dictptr;
}

/* The instance attribute `name` of obj, borrowed; NULL without an error
 * when there is none. 3.11 keeps an object's attributes in an inline
 * values array, indexed like its class's shared keys, until its __dict__
 * is asked for: read there without making the dict, else in the dict.
 * Where a name is among a class's keys is remembered per class version
 * and key count (shared keys only grow, at the end). */
static PyObject *
inst_peek(PyObject *obj, PyObject *name)
{
    static struct { PyTypeObject *tp; unsigned int tag; PyObject *name; Py_ssize_t n, ix; } memo[64];
    PyTypeObject *tp = Py_TYPE(obj);
    PyDictValues *values = PyType_HasFeature(tp, Py_TPFLAGS_MANAGED_DICT)
                               ? ((PyDictValues **)obj)[-4] : NULL;
    PyDictKeysObject *keys = values == NULL ? NULL : ((PyHeapTypeObject *)tp)->ht_cached_keys;
    if (keys == NULL) {
        PyObject *d = inst_dict(obj);  /* there is no values array to make it from */
        return d == NULL ? NULL : PyDict_GetItemWithError(d, name);
    }
    PyDictUnicodeEntry *entries = DK_UNICODE_ENTRIES(keys);
    unsigned int tag = PyType_HasFeature(tp, Py_TPFLAGS_VALID_VERSION_TAG) ? tp->tp_version_tag : 0;
    int slot = (int)((((uintptr_t)tp ^ (uintptr_t)name) >> 4) & 63);
    Py_ssize_t n = keys->dk_nentries, ix = memo[slot].ix;
    if (tag == 0 || memo[slot].tp != tp || memo[slot].tag != tag || memo[slot].name != name ||
        memo[slot].n != n || (ix >= 0 && entries[ix].me_key != name)) {
        Py_hash_t hash = ((PyASCIIObject *)name)->hash;
        for (ix = n - 1; ix >= 0; ix--) {
            PyObject *key = entries[ix].me_key;
            if (key == name || (((PyASCIIObject *)key)->hash == hash && _PyUnicode_EQ(key, name)))
                break;
        }
        if (tag != 0) {
            memo[slot].tp = tp;
            memo[slot].tag = tag;
            memo[slot].name = name;
            memo[slot].n = n;
            memo[slot].ix = ix;
        }
    }
    return ix < 0 ? NULL : values->values[ix];
}

/* obj.name where obj's type holds no data descriptor of `name` (see
 * dict_attrs): the instance's own, where Python looks first, then the
 * attribute protocol. New reference. */
static PyObject *
inst_get(PyObject *obj, PyObject *name)
{
    PyObject *v = inst_peek(obj, name);
    if (v != NULL)
        return Py_NewRef(v);
    return PyErr_Occurred() ? NULL : PyObject_GetAttr(obj, name);
}

/* A field of a FlowSpec or TransportConfig (their classes are checked at
 * import), the attribute protocol for any other object. New reference. */
static PyObject *
field_get(PyObject *obj, PyObject *name)
{
    return Py_IS_TYPE(obj, FlowSpecCls) || Py_IS_TYPE(obj, TransportConfigCls)
               ? inst_get(obj, name) : PyObject_GetAttr(obj, name);
}

/* Whether obj.name is the plain function `fn` of obj's type: no instance
 * attribute shadows it. */
static int
method_is(PyObject *obj, PyObject *name, PyObject *fn)
{
    return _PyType_Lookup(Py_TYPE(obj), name) == fn && inst_peek(obj, name) == NULL;
}

/* Raise unless `tp` holds no data descriptor of any of the NULL-terminated
 * names: the kernels read those from the instance's own (inst_peek). */
static int
dict_attrs(PyTypeObject *tp, ...)
{
    va_list names;
    PyObject *name, *descr;
    va_start(names, tp);
    while ((name = va_arg(names, PyObject *)) != NULL &&
           ((descr = _PyType_Lookup(tp, name)) == NULL || Py_TYPE(descr)->tp_descr_set == NULL))
        ;
    va_end(names);
    if (name != NULL)
        PyErr_Format(PyExc_TypeError, "compiled backend: %.100s.%U is a data descriptor",
                     tp->tp_name, name);
    return name == NULL ? 0 : -1;
}

/* obj.name(a, b), result dropped; a or both may be NULL. */
static int
call_method(PyObject *obj, PyObject *name, PyObject *a, PyObject *b)
{
    PyObject *args[3] = {obj, a, b};
    PyObject *r = PyObject_VectorcallMethod(name, args, 1 + (a != NULL) + (b != NULL), NULL);
    Py_XDECREF(r);
    return r == NULL ? -1 : 0;
}

/* field_get(obj, name) as a small non-negative int; raises when it is not. */
static int
attr_ll(PyObject *obj, PyObject *name, long long *out)
{
    PyObject *v = field_get(obj, name);
    if (v == NULL)
        return -1;
    int ok = ll_read_fast(v, out);
    Py_DECREF(v);
    if (!ok)
        PyErr_Format(PyExc_TypeError, "compiled backend: %U is not a small int", name);
    return ok ? 0 : -1;
}

/* bool(field_get(obj, name)), -1 on error. */
static int
attr_truth(PyObject *obj, PyObject *name)
{
    PyObject *v = field_get(obj, name);
    int is_true = v == NULL ? -1 : truth(v);
    Py_XDECREF(v);
    return is_true;
}

/* owner.poll(port) with direct dispatch when the owner is kernel-bound.
 * Returns a new reference (packet or None). */
static PyObject *
c_owner_poll(PyObject *owner, PyObject *port)
{
    PyObject *pollfn = inst_get(owner, s_poll), *res;
    KernelMethodObject *km = (KernelMethodObject *)pollfn;
    if (pollfn == NULL)
        return NULL;
    if (Py_IS_TYPE(pollfn, &KernelMethodType) && km->which == KM_SWITCH_POLL)
        res = c_switch_poll((SwitchKernelObject *)km->kernel, port);
    else if (Py_IS_TYPE(pollfn, &KernelMethodType) && km->which == KM_HOST_POLL)
        res = c_host_poll((HostKernelObject *)km->kernel, port);
    else
        res = PyObject_CallOneArg(pollfn, port);
    Py_DECREF(pollfn);
    return res;
}

/* Port.kick() on an arbitrary port object: direct C path when the
 * port's _tx_cb is a compiled kernel method, generic method call
 * otherwise (CutPort, legacy-batching ports, test doubles). */
static int
c_try_kick(PyObject *port)
{
    PyObject *cb = GETSLOT(port, P_tx_cb);
    if (cb != NULL && Py_TYPE(cb) == &KernelMethodType &&
        ((KernelMethodObject *)cb)->which == KM_PORT_TX_DONE) {
        return pk_kick((PortKernelObject *)((KernelMethodObject *)cb)->kernel);
    }
    return call_method(port, s_kick, NULL, NULL);
}

/* Deliver one in-flight frame to the peer's owner, resolving
 * owner.receive/receive_pause at delivery time (interceptor chains and
 * audit rebinding installed mid-flight must see the frame). */
static int
c_deliver_frame(PyObject *peer, long long kind, PyObject *payload)
{
    PyObject *peer_owner = GETSLOT(peer, P_owner);
    if (peer_owner == NULL) {
        PyErr_SetString(PyExc_AttributeError, "port has no owner");
        return -1;
    }
    /* FRAME_PACKET (0) or FRAME_PAUSE */
    PyObject *recv = inst_get(peer_owner, kind == 0 ? s_receive : s_receive_pause);
    KernelMethodObject *km = (KernelMethodObject *)recv;
    int status;
    if (recv == NULL)
        return -1;
    if (kind == 0 && Py_IS_TYPE(recv, &KernelMethodType) && km->which == KM_SWITCH_RECEIVE)
        status = c_switch_receive((SwitchKernelObject *)km->kernel, payload, peer);
    else if (kind == 0 && Py_IS_TYPE(recv, &KernelMethodType) && km->which == KM_HOST_SINK)
        status = c_host_sink((HostKernelObject *)km->kernel, payload, peer);
    else {
        PyObject *args[2] = {payload, peer};
        PyObject *r = PyObject_Vectorcall(recv, args, 2, NULL);
        status = r == NULL ? -1 : 0;
        Py_XDECREF(r);
    }
    Py_DECREF(recv);
    return status;
}

/* -- PortKernel ------------------------------------------------------------ */

/* Start serializing `packet` on pk's port (the tail of kick/_tx_done). */
static int
pk_transmit(PortKernelObject *pk, PyObject *packet)
{
    PyObject *port = pk->port;
    if (slot_store_bool(port, P_busy, 1) < 0)
        return -1;
    long long size;
    if (slot_ll(packet, K_size, &size) < 0)
        return -1;
    long long v;
    if (slot_ll(port, P_tx_bytes, &v) < 0 ||
        slot_store_ll(port, P_tx_bytes, v + size) < 0)
        return -1;
    if (slot_ll(port, P_tx_packets, &v) < 0 ||
        slot_store_ll(port, P_tx_packets, v + 1) < 0)
        return -1;
    CEngineObject *eng = pk->engine;
    long long seq = eng->seq;
    eng->seq = seq + 1;
    /* Read the rate live (one slot load): the fault layer's
       link_degrade rescales port.rate_bps mid-run, and serialization
       time must follow it exactly as the pure-Python path does. */
    long long rate;
    if (slot_ll(port, P_rate_bps, &rate) < 0)
        return -1;
    long long tt = c_tx_time_ns(size, rate);
    if (tt < 0)
        return -1;
    PyObject *args = PyTuple_Pack(1, packet);
    if (args == NULL)
        return -1;
    int r = heap_push(&eng->heap, eng->now + tt, seq, pk->tx_done_m, args);
    Py_DECREF(args);
    return r;
}

/* Port.kick(): poll the owner and start transmitting if idle. */
static int
pk_kick(PortKernelObject *pk)
{
    PyObject *port = pk->port;
    int busy = slot_truth(port, P_busy);
    if (busy)
        return busy < 0 ? -1 : 0;
    int paused = slot_truth(port, P_paused);
    if (paused)
        return paused < 0 ? -1 : 0;
    int down = slot_truth(port, P_down);
    if (down)
        return down < 0 ? -1 : 0;
    PyObject *owner = GETSLOT(port, P_owner);
    if (owner == NULL) {
        PyErr_SetString(PyExc_AttributeError, "port has no owner");
        return -1;
    }
    PyObject *packet = c_owner_poll(owner, port);
    if (packet == NULL)
        return -1;
    if (packet == Py_None) {
        Py_DECREF(packet);
        return 0;
    }
    int r = pk_transmit(pk, packet);
    Py_DECREF(packet);
    return r;
}

/* Port._tx_done(packet): serialization finished — enqueue the frame on
 * the in-flight FIFO (arming the drain when the FIFO was empty) and
 * immediately try the next packet (kick, busy known False). */
static int
c_port_tx_done(PortKernelObject *pk, PyObject *packet)
{
    PyObject *port = pk->port;
    CEngineObject *eng = pk->engine;
    PyObject *pd = GETSLOT(port, P_peer_deliver);
    if (pd != NULL && pd != Py_None) {
        long long seq, arrival = eng->now + pk->delay_ns;
        if (slot_ll(port, P_wire_seq, &seq) < 0)
            return -1;
        PyObject *so = Py_NewRef(GETSLOT(port, P_wire_seq)), *ao = PyLong_FromLongLong(arrival);
        PyObject *rec = ao == NULL ? NULL : PyTuple_Pack(4, ao, so, LLZero, packet);
        Py_DECREF(so);
        Py_XDECREF(ao);
        if (rec == NULL || slot_store_ll(port, P_wire_seq, seq + 1) < 0 ||
            (Py_SIZE(pk->inflight) == 0 &&
             heap_push(&eng->heap, arrival, seq, pk->drain_m, EmptyTuple) < 0) ||
            deque_push(DequeAppend, pk->inflight, rec) < 0) {
            Py_XDECREF(rec);
            return -1;
        }
        Py_DECREF(rec);
    }
    if (slot_store_bool(port, P_busy, 0) < 0)
        return -1;
    return pk_kick(pk);
}

/* Port._drain(): deliver this port's due in-flight frame. Mirrors the
 * pure method: pop the head, re-arm the next head *before* dispatching;
 * a same-ns burst is handed to the pure method whole. */
static PyObject *PortDrainFn;         /* Port._drain */

static int
c_port_drain(PortKernelObject *pk)
{
    PyObject *peer = GETSLOT(pk->port, P_peer), *head, *nxt = NULL;
    long long arrival, next_arrival = -1, next_seq, kind;
    int status = -1;
    if (peer == NULL || peer == Py_None) {
        PyErr_SetString(PyExc_AttributeError, "port has no peer");
        return -1;
    }
    if ((head = deque_popleft(pk->inflight)) == NULL)
        return -1;
    Py_INCREF(peer);
    if (!PyTuple_CheckExact(head) || PyTuple_GET_SIZE(head) != 4) {
        PyErr_SetString(PyExc_TypeError, "corrupt in-flight entry");
        goto done;
    }
    if (as_ll(PyTuple_GET_ITEM(head, 0), &arrival) < 0 ||
        (Py_SIZE(pk->inflight) > 0 &&
         ((nxt = PySequence_GetItem(pk->inflight, 0)) == NULL ||
          as_ll(PyTuple_GET_ITEM(nxt, 0), &next_arrival) < 0 ||
          as_ll(PyTuple_GET_ITEM(nxt, 1), &next_seq) < 0)))
        goto done;
    if (next_arrival == arrival) {
        /* Same-ns burst (only a PFC frame can share an arrival ns with
         * data: serialization separates the rest; none in 290 000
         * drains of roce-leafspine): the pure method's, on the FIFO
         * as it was. */
        PyObject *r = deque_push(DequeAppendleft, pk->inflight, head) < 0
                          ? NULL : PyObject_CallOneArg(PortDrainFn, pk->port);
        status = r == NULL ? -1 : 0;
        Py_XDECREF(r);
        goto done;
    }
    /* Spaced frames: re-arm the next head, then deliver this one. */
    if (nxt != NULL &&
        heap_push(&pk->engine->heap, next_arrival, next_seq, pk->drain_m, EmptyTuple) < 0)
        goto done;
    if (as_ll(PyTuple_GET_ITEM(head, 2), &kind) == 0)
        status = c_deliver_frame(peer, kind, PyTuple_GET_ITEM(head, 3));
done:
    Py_XDECREF(nxt);
    Py_DECREF(head);
    Py_DECREF(peer);
    return status;
}

static int
pk_traverse(PortKernelObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->port);
    Py_VISIT((PyObject *)self->engine);
    Py_VISIT(self->inflight);
    Py_VISIT(self->tx_done_m);
    Py_VISIT(self->drain_m);
    return 0;
}

static int
pk_clear(PortKernelObject *self)
{
    Py_CLEAR(self->port);
    Py_CLEAR(self->engine);
    Py_CLEAR(self->inflight);
    Py_CLEAR(self->tx_done_m);
    Py_CLEAR(self->drain_m);
    return 0;
}

static void
pk_dealloc(PortKernelObject *self)
{
    PyObject_GC_UnTrack(self);
    pk_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* Raise unless the type of the owner of `port` (if any) lets the kernels
 * read its receive path from the owner's own attributes. */
static int
owner_attrs(PyObject *port)
{
    PyObject *owner = port == Py_None ? NULL : GETSLOT(port, P_owner);
    return owner == NULL ? 0 : dict_attrs(Py_TYPE(owner), s_receive, s_poll, s_receive_pause, NULL);
}

static int
pk_init(PortKernelObject *self, PyObject *args, PyObject *kwargs)
{
    PyObject *port;
    if (!PyArg_ParseTuple(args, "O!:PortKernel", (PyTypeObject *)PortCls, &port))
        return -1;
    PyObject *engine = GETSLOT(port, P_engine), *inflight = GETSLOT(port, P_inflight);
    PyObject *peer = GETSLOT(port, P_peer);
    if (engine == NULL || !CEngine_CheckExact(engine)) {
        PyErr_SetString(PyExc_TypeError,
                        "PortKernel requires a port driven by a CEngine");
        return -1;
    }
    if (inflight == NULL || !Py_IS_TYPE(inflight, DequeCls)) {
        PyErr_SetString(PyExc_TypeError, "port has no in-flight deque");
        return -1;
    }
    long long delay;
    if (slot_ll(port, P_delay_ns, &delay) < 0 || owner_attrs(port) < 0 ||
        (peer != NULL && owner_attrs(peer) < 0))
        return -1;
    Py_INCREF(port);
    Py_XSETREF(self->port, port);
    Py_INCREF(engine);
    Py_XSETREF(self->engine, (CEngineObject *)engine);
    Py_INCREF(inflight);
    Py_XSETREF(self->inflight, inflight);
    self->delay_ns = delay;
    PyObject *m = km_new_internal((PyObject *)self, KM_PORT_TX_DONE, "PortKernel.tx_done");
    if (m == NULL)
        return -1;
    Py_XSETREF(self->tx_done_m, m);
    m = km_new_internal((PyObject *)self, KM_PORT_DRAIN, "PortKernel.drain");
    if (m == NULL)
        return -1;
    Py_XSETREF(self->drain_m, m);
    return 0;
}

static PyMemberDef pk_members[] = {
    {"tx_done", T_OBJECT, offsetof(PortKernelObject, tx_done_m), READONLY, NULL},
    {"drain", T_OBJECT, offsetof(PortKernelObject, drain_m), READONLY, NULL},
    {"port", T_OBJECT, offsetof(PortKernelObject, port), READONLY, NULL},
    {NULL},
};

static PyTypeObject PortKernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ckernel.PortKernel",
    .tp_basicsize = sizeof(PortKernelObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled serialization/delivery fast path for one Port.",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)pk_init,
    .tp_dealloc = (destructor)pk_dealloc,
    .tp_traverse = (traverseproc)pk_traverse,
    .tp_clear = (inquiry)pk_clear,
    .tp_members = pk_members,
};

/* -- SwitchKernel ---------------------------------------------------------- */

static PyObject *SwitchDropFn;        /* Switch._drop */
static PyObject *CountDropFn;         /* NetStats.count_drop */
static PyObject *s_audit, *s_count_drop, *s_drop_bytes;
static PyObject *s_drops[2][3];       /* NetStats drop counters: [red][all, data, ctrl] */
static PyObject *FibCls;              /* repro.net.routing.Fib */
static PyObject *FibLookupFn;         /* Fib.lookup as defined at import */
static PyObject *s_receive_name;      /* "_receive" */
static PyObject *s_poll_name;         /* "_poll" */

#define COLOR_RED 1LL

/* repro.net.routing.ecmp_index for fanout > 1: zlib.crc32 of the key's
 * four little-endian bytes, mod fanout. CRC-32 is reflected, so the
 * word is xor-ed in whole and its 32 bits shifted out. */
static inline Py_ssize_t
ecmp_index_static(long long flow_id, long long switch_id, Py_ssize_t fanout)
{
    uint32_t crc = ~(uint32_t)((uint64_t)flow_id * 2654435761ULL
                               + (uint64_t)switch_id * 40503ULL);
    for (int bit = 0; bit < 32; bit++)
        crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    return (Py_ssize_t)(~crc % (uint32_t)fanout);
}
#define KIND_DATA 0LL

/* Fall back to the pure class implementation (exotic port doubles). */
static PyObject *
sw_call_pure(PyObject *sw, PyObject *name, PyObject *a, PyObject *b)
{
    PyObject *fn = PyObject_GetAttr((PyObject *)Py_TYPE(sw), name);
    if (fn == NULL)
        return NULL;
    PyObject *r = b != NULL
        ? PyObject_CallFunctionObjArgs(fn, sw, a, b, NULL)
        : PyObject_CallFunctionObjArgs(fn, sw, a, NULL);
    Py_DECREF(fn);
    return r;
}

/* recycle(packet), open-coded; _pool_enabled is read from the module
 * dict per call (set_pooling rebinds it). */
static int
c_recycle(PyObject *packet)
{
    int pooled = slot_truth(packet, K_pooled);
    if (pooled)
        return pooled < 0 ? -1 : 0;
    PyObject *enabled = PyDict_GetItemWithError(PacketModuleDict, s_pool_enabled);
    int on = enabled == NULL ? -1 : truth(enabled);
    if (on < 0 && !PyErr_Occurred())
        PyErr_SetString(PyExc_NameError, "repro.net.packet._pool_enabled");
    if (on <= 0)
        return on;
    slot_store_bool(packet, K_pooled, 1);
    return PyList_GET_SIZE(PacketPool) < POOL_MAX_C ? list_append_fast(PacketPool, packet) : 0;
}

/* The class queues of switch port `no` (an item of _port_queues); a new
 * reference. */
static PyObject *
sk_port_queues(SwitchKernelObject *sk, long long no)
{
    PyObject *pq = no >= 0 && no < PyList_GET_SIZE(sk->port_queues)
                       ? PyList_GET_ITEM(sk->port_queues, no) : NULL;
    if (pq != NULL && PyList_CheckExact(pq) && PyList_GET_SIZE(pq) > 0)
        return Py_NewRef(pq);
    PyErr_Format(PyExc_IndexError, "switch port %lld has no class queues", no);
    return NULL;
}

/* packet.color == Color.RED, the two members told apart by pointer. */
static int
packet_red(PyObject *packet)
{
    PyObject *color = GETSLOT(packet, K_color);
    long long v;
    if (color == ColorREDObj || color == ColorGREENObj)
        return color == ColorREDObj;
    return slot_ll(packet, K_color, &v) < 0 ? -1 : v == COLOR_RED;
}

/* self._drop(packet, reason, queue[, port_occupancy]), resolved at the
 * drop as the Python pipeline resolves it. Open-coded -- NetStats.count_drop,
 * the switch's own two counters, recycle -- while that is the stock method
 * of this switch, no auditor is attached (audit is toggled mid-run) and
 * stats is a plain NetStats counting the stock way; the call otherwise. */
static int
c_switch_drop(SwitchKernelObject *sk, PyObject *packet, PyObject *reason, PyObject *queue,
              PyObject *occupancy, long long size, int red)
{
    PyObject *stats = sk->stats, *swd = NULL, *counters = NULL;
    int stock = inst_peek(sk->sw, s_audit) == Py_None && method_is(sk->sw, s_drop_m, SwitchDropFn) &&
                Py_TYPE(stats) == NetStatsCls && method_is(stats, s_count_drop, CountDropFn) &&
                (counters = inst_dict(stats)) != NULL && (swd = inst_dict(sk->sw)) != NULL;
    if (!stock) {
        PyObject *drop = PyErr_Occurred() ? NULL : PyObject_GetAttr(sk->sw, s_drop_m);
        PyObject *r = drop == NULL ? NULL : PyObject_CallFunctionObjArgs(
            drop, packet, reason, queue, occupancy, NULL);
        Py_XDECREF(drop);
        Py_XDECREF(r);
        return r == NULL ? -1 : 0;
    }
    PyObject *const *names = s_drops[red];  /* drops_<color>, _data, _ctrl */
    int ctrl = GETSLOT(packet, K_kind) != KindDATAObj;
    if (dict_add(counters, s_drop_bytes, size) < 0 || dict_add(counters, names[0], 1) < 0 ||
        dict_add(counters, names[1 + ctrl], 1) < 0 || dict_add(swd, names[0], 1) < 0)
        return -1;
    return c_recycle(packet);
}

static int
c_switch_receive(SwitchKernelObject *sk, PyObject *packet, PyObject *in_port)
{
    /* Non-Port ingress (test doubles): take the pure path. */
    if (!PyObject_TypeCheck(in_port, (PyTypeObject *)PortCls)) {
        PyObject *r = sw_call_pure(sk->sw, s_receive_name, packet, in_port);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
        return 0;
    }

    /* Routing: fib._routes[packet.dst], single-path open-coded. */
    PyObject *dst = GETSLOT(packet, K_dst);
    if (dst == NULL) {
        PyErr_SetString(PyExc_AttributeError, "packet has no dst");
        return -1;
    }
    PyObject *routes = PyDict_GetItemWithError(sk->routes, dst);  /* borrowed */
    if (routes == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetObject(PyExc_KeyError, dst);
        return -1;
    }
    long long egress;
    PyObject *eo, *owned = NULL;
    if (PyTuple_CheckExact(routes) && PyTuple_GET_SIZE(routes) == 1)
        eo = PyTuple_GET_ITEM(routes, 0);
    else if (sk->ecmp_switch_id >= 0 && PyTuple_CheckExact(routes) &&
             PyTuple_GET_SIZE(routes) > 1) {
        long long flow_id;
        if (slot_ll(packet, K_flow_id, &flow_id) < 0)
            return -1;
        eo = PyTuple_GET_ITEM(routes, ecmp_index_static(
            flow_id, sk->ecmp_switch_id, PyTuple_GET_SIZE(routes)));
    }
    else {
        PyObject *args[2] = {dst, GETSLOT(packet, K_flow_id)};
        if (args[1] == NULL) {
            PyErr_SetString(PyExc_AttributeError, "packet has no flow_id");
            return -1;
        }
        eo = owned = PyObject_Vectorcall(sk->fib_lookup, args, 2, NULL);
    }
    int routed = eo != NULL && as_ll(eo, &egress) == 0;
    Py_XDECREF(owned);
    PyObject *pqf = routed ? sk_port_queues(sk, egress) : NULL;
    if (pqf == NULL)
        return -1;
    Py_ssize_t nclasses = PyList_GET_SIZE(pqf);
    PyObject **qarr = PySequence_Fast_ITEMS(pqf);
    long long tclass = 0;
    PyObject *queue;
    if (nclasses == 1)
        queue = qarr[0];
    else {
        if (slot_ll(packet, K_tclass, &tclass) < 0)
            goto fail;
        if (!(0 <= tclass && tclass < (long long)nclasses))
            tclass = 0;
        queue = qarr[tclass];
    }
    long long size;
    int red = packet_red(packet);
    if (red < 0 || slot_ll(packet, K_size, &size) < 0)
        goto fail;

    /* 1. Color-aware dropping of unimportant packets. */
    if (sk->color_k >= 0 && red) {
        long long redb;
        if (slot_ll(queue, Q_red_bytes, &redb) < 0)
            goto fail;
        if (redb + size > sk->color_k) {
            int in_cc = 1;
            if (sk->color_classes != Py_None) {
                PyObject *tco = PyLong_FromLongLong(tclass);
                in_cc = (tco == NULL) ? -1 : PySequence_Contains(sk->color_classes, tco);
                Py_XDECREF(tco);
            }
            if (in_cc < 0)
                goto fail;
            if (in_cc) {
                int rc = c_switch_drop(sk, packet, s_color_str, queue, NULL, size, 1);
                Py_DECREF(pqf);
                return rc;
            }
        }
    }

    /* 2. Dynamic-threshold admission. */
    {
        long long port_occ = 0;
        if (nclasses == 1) {
            if (slot_ll(queue, Q_occupancy, &port_occ) < 0)
                goto fail;
        }
        else {
            for (Py_ssize_t i = 0; i < nclasses; i++) {
                long long v;
                if (slot_ll(qarr[i], Q_occupancy, &v) < 0)
                    goto fail;
                port_occ += v;
            }
        }
        long long used, cap;
        if (slot_ll(sk->buffer, B_used, &used) < 0 ||
            slot_ll(sk->buffer, B_capacity, &cap) < 0)
            goto fail;
        PyObject *reason = NULL;
        if (used + size > cap)
            reason = s_pool_str;
        else if (sk->pfc_on_admit == NULL) {
            PyObject *alpha = GETSLOT(sk->buffer, B_alpha);
            if (alpha == NULL) {
                PyErr_SetString(PyExc_AttributeError, "buffer has no alpha");
                goto fail;
            }
            double a = PyFloat_AsDouble(alpha);
            if (a == -1.0 && PyErr_Occurred())
                goto fail;
            if ((double)port_occ >= a * (double)(cap - used))
                reason = s_dynamic_str;
        }
        if (reason != NULL) {
            PyObject *occo = PyLong_FromLongLong(port_occ);
            if (occo == NULL)
                goto fail;
            int rc = c_switch_drop(sk, packet, reason, queue, occo, size, red);
            Py_DECREF(occo);
            Py_DECREF(pqf);
            return rc;
        }

        /* SharedBuffer.reserve + EgressQueue.push, open-coded. */
        used += size;
        if (slot_store_ll(sk->buffer, B_used, used) < 0)
            goto fail;
        long long peak;
        if (slot_ll(sk->buffer, B_peak_used, &peak) < 0)
            goto fail;
        if (used > peak && slot_store_ll(sk->buffer, B_peak_used, used) < 0)
            goto fail;
    }
    {
        PyObject *qd = GETSLOT(queue, Q_items);
        if (qd == NULL) {
            PyErr_SetString(PyExc_AttributeError, "queue has no items");
            goto fail;
        }
        PyObject *ipno = GETSLOT(in_port, P_port_no);
        if (ipno == NULL) {
            PyErr_SetString(PyExc_AttributeError, "port has no port_no");
            goto fail;
        }
        Py_INCREF(ipno);
        PyObject *pair = PyTuple_Pack(2, packet, ipno);
        int pushed = pair == NULL ? -1 : deque_push(DequeAppend, qd, pair);
        Py_XDECREF(pair);
        if (pushed < 0)
            goto fail_ipno;
        long long occ;
        if (slot_ll(queue, Q_occupancy, &occ) < 0)
            goto fail_ipno;
        occ += size;
        if (slot_store_ll(queue, Q_occupancy, occ) < 0)
            goto fail_ipno;
        if (red) {
            long long redq, maxred;
            if (slot_ll(queue, Q_red_bytes, &redq) < 0)
                goto fail_ipno;
            redq += size;
            if (slot_store_ll(queue, Q_red_bytes, redq) < 0)
                goto fail_ipno;
            if (slot_ll(queue, Q_max_red_bytes, &maxred) < 0)
                goto fail_ipno;
            if (redq > maxred && slot_store_ll(queue, Q_max_red_bytes, redq) < 0)
                goto fail_ipno;
        }
        long long maxocc;
        if (slot_ll(queue, Q_max_occupancy, &maxocc) < 0)
            goto fail_ipno;
        if (occ > maxocc && slot_store_ll(queue, Q_max_occupancy, occ) < 0)
            goto fail_ipno;

        /* 3. ECN marking on the post-enqueue queue length: StepEcn's
         * threshold, else the scheme's should_mark. */
        if (sk->ecn_k >= 0 || sk->should_mark != NULL) {
            int capable = slot_truth(packet, K_ecn_capable);
            int mark = capable > 0 ? slot_truth(packet, K_ce) : 0;
            if (capable < 0 || mark < 0)
                goto fail_ipno;
            if (capable && !mark) {
                if (sk->ecn_k >= 0)
                    mark = occ > sk->ecn_k;
                else {
                    PyObject *occo = PyLong_FromLongLong(occ);
                    PyObject *m = occo == NULL ? NULL : PyObject_CallOneArg(sk->should_mark, occo);
                    mark = m == NULL ? -1 : truth(m);
                    Py_XDECREF(occo);
                    Py_XDECREF(m);
                }
                if (mark < 0 || (mark && (slot_store_bool(packet, K_ce, 1) < 0 ||
                                          dict_add(inst_dict(sk->stats), s_ecn_marks, 1) < 0)))
                    goto fail_ipno;
            }
        }

        /* 4. PFC ingress accounting: pfc.on_admit(in_port.port_no, packet.size). */
        if (sk->pfc_on_admit != NULL) {
            PyObject *pargs[2] = {ipno, GETSLOT(packet, K_size)};
            PyObject *r2 = PyObject_Vectorcall(sk->pfc_on_admit, pargs, 2, NULL);
            if (r2 == NULL)
                goto fail_ipno;
            Py_DECREF(r2);
        }
        Py_DECREF(ipno);
        goto kick;
    fail_ipno:
        Py_DECREF(ipno);
        goto fail;
    }
kick:
    {
        PyObject *port = egress < PyList_GET_SIZE(sk->ports) ? PyList_GET_ITEM(sk->ports, egress)
                                                             : NULL;
        if (port == NULL) {
            PyErr_SetString(PyExc_IndexError, "egress port out of range");
            goto fail;
        }
        Py_INCREF(port);
        int busy = slot_truth(port, P_busy);
        int paused = busy < 0 ? -1 : slot_truth(port, P_paused);
        if (paused < 0 || (!busy && !paused && c_try_kick(port) < 0)) {
            Py_DECREF(port);
            goto fail;
        }
        Py_DECREF(port);
    }
    Py_DECREF(pqf);
    return 0;
fail:
    Py_DECREF(pqf);
    return -1;
}

/* EgressQueue.pop from `queue` when it holds an entry: *entry is the
 * popped (packet, ingress) pair (a new reference), else NULL. */
static int
sk_queue_pop(PyObject *queue, PyObject **entry)
{
    PyObject *qd = GETSLOT(queue, Q_items);
    long long psize, v;
    int red;
    *entry = NULL;
    if (qd == NULL) {
        PyErr_SetString(PyExc_AttributeError, "queue has no items");
        return -1;
    }
    if (deque_len(qd) <= 0)
        return PyErr_Occurred() ? -1 : 0;
    if ((*entry = deque_popleft(qd)) == NULL)
        return -1;
    PyObject *pkt = PyTuple_GET_ITEM(*entry, 0);
    if ((red = packet_red(pkt)) < 0 || slot_ll(pkt, K_size, &psize) < 0 ||
        slot_ll(queue, Q_occupancy, &v) < 0 || slot_store_ll(queue, Q_occupancy, v - psize) < 0 ||
        slot_ll(queue, Q_dequeued_bytes, &v) < 0 ||
        slot_store_ll(queue, Q_dequeued_bytes, v + psize) < 0 ||
        (red && (slot_ll(queue, Q_red_bytes, &v) < 0 ||
                 slot_store_ll(queue, Q_red_bytes, v - psize) < 0)))
        return -1;
    return 0;
}

static PyObject *
c_switch_poll(SwitchKernelObject *sk, PyObject *port)
{
    /* Non-Port callers (test doubles): take the pure path. */
    if (!PyObject_TypeCheck(port, (PyTypeObject *)PortCls))
        return sw_call_pure(sk->sw, s_poll_name, port, NULL);

    long long pno;
    if (slot_ll(port, P_port_no, &pno) < 0)
        return NULL;
    PyObject *pqf = sk_port_queues(sk, pno);
    if (pqf == NULL)
        return NULL;
    Py_ssize_t nclasses = PyList_GET_SIZE(pqf);
    PyObject **qarr = PySequence_Fast_ITEMS(pqf);

    PyObject *entry = NULL;
    if (nclasses == 1) {
        if (sk_queue_pop(qarr[0], &entry) < 0)
            goto fail;
    }
    else {
        /* Round-robin over the per-class queues from _rr[port_no]. */
        long long start;
        if (pno >= PyList_GET_SIZE(sk->rr)) {
            PyErr_SetString(PyExc_IndexError, "_rr index out of range");
            goto fail;
        }
        if (as_ll(PyList_GET_ITEM(sk->rr, pno), &start) < 0)
            goto fail;
        for (Py_ssize_t offset = 0; offset < nclasses; offset++) {
            Py_ssize_t idx = (Py_ssize_t)((start + offset) % nclasses);
            if (sk_queue_pop(qarr[idx], &entry) < 0)
                goto fail;
            if (entry == NULL)
                continue;
            PyObject *nv = PyLong_FromLongLong((idx + 1) % nclasses);
            if (nv == NULL || PyList_SetItem(sk->rr, pno, nv) < 0)  /* steals nv */
                goto fail;
            break;
        }
    }
    if (entry == NULL) {
        Py_DECREF(pqf);
        Py_RETURN_NONE;
    }

    {
        PyObject *packet = PyTuple_GET_ITEM(entry, 0);
        Py_INCREF(packet);
        PyObject *ingress = PyTuple_GET_ITEM(entry, 1);
        Py_INCREF(ingress);
        Py_CLEAR(entry);
        long long psize;
        if (slot_ll(packet, K_size, &psize) < 0)
            goto fail_pkt;

        /* SharedBuffer.release, open-coded (keeps the under-run check). */
        long long used;
        if (slot_ll(sk->buffer, B_used, &used) < 0)
            goto fail_pkt;
        used -= psize;
        if (slot_store_ll(sk->buffer, B_used, used) < 0)
            goto fail_pkt;
        if (used < 0) {
            PyErr_SetString(PyExc_AssertionError, "shared buffer under-run");
            goto fail_pkt;
        }
        /* pfc.on_release(ingress_no, packet.size) */
        if (sk->pfc_on_release != NULL) {
            PyObject *pargs[2] = {ingress, GETSLOT(packet, K_size)};
            PyObject *r = PyObject_Vectorcall(sk->pfc_on_release, pargs, 2, NULL);
            if (r == NULL)
                goto fail_pkt;
            Py_DECREF(r);
        }

        /* INT (HPCC) record at dequeue time. */
        if (sk->int_enabled) {
            long long kind;
            if (slot_ll(packet, K_kind, &kind) < 0)
                goto fail_pkt;
            PyObject *irs = GETSLOT(packet, K_int_records);
            if (kind == KIND_DATA && irs != NULL && irs != Py_None) {
                long long qlen = 0;
                for (Py_ssize_t i = 0; i < nclasses; i++) {
                    long long v;
                    if (slot_ll(qarr[i], Q_occupancy, &v) < 0)
                        goto fail_pkt;
                    qlen += v;
                }
                PyObject *qo = PyLong_FromLongLong(qlen);
                PyObject *no = qo ? PyLong_FromLongLong(sk->engine->now) : NULL;
                PyObject *txb = GETSLOT(port, P_tx_bytes);
                PyObject *rb = GETSLOT(port, P_rate_bps);
                if (qo == NULL || no == NULL || txb == NULL || rb == NULL) {
                    Py_XDECREF(qo);
                    Py_XDECREF(no);
                    if (!PyErr_Occurred())
                        PyErr_SetString(PyExc_AttributeError,
                                        "port missing tx_bytes/rate_bps");
                    goto fail_pkt;
                }
                PyObject *rec = PyObject_CallFunctionObjArgs(IntRecordCls,
                                                             qo, txb, no, rb, NULL);
                Py_DECREF(qo);
                Py_DECREF(no);
                int added = rec == NULL ? -1 : call_method(packet, s_add_int_record, rec, NULL);
                Py_XDECREF(rec);
                if (added < 0)
                    goto fail_pkt;
            }
        }
        Py_DECREF(ingress);
        Py_DECREF(pqf);
        return packet;
    fail_pkt:
        Py_DECREF(packet);
        Py_DECREF(ingress);
        goto fail;
    }
fail:
    Py_XDECREF(entry);
    Py_DECREF(pqf);
    return NULL;
}

static int
sk_traverse(SwitchKernelObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->sw);
    Py_VISIT((PyObject *)self->engine);
    Py_VISIT(self->routes);
    Py_VISIT(self->fib_lookup);
    Py_VISIT(self->buffer);
    Py_VISIT(self->stats);
    Py_VISIT(self->ports);
    Py_VISIT(self->port_queues);
    Py_VISIT(self->rr);
    Py_VISIT(self->pfc_on_admit);
    Py_VISIT(self->pfc_on_release);
    Py_VISIT(self->should_mark);
    Py_VISIT(self->color_classes);
    Py_VISIT(self->receive_m);
    Py_VISIT(self->poll_m);
    return 0;
}

static int
sk_clear(SwitchKernelObject *self)
{
    Py_CLEAR(self->sw);
    Py_CLEAR(self->engine);
    Py_CLEAR(self->routes);
    Py_CLEAR(self->fib_lookup);
    Py_CLEAR(self->buffer);
    Py_CLEAR(self->stats);
    Py_CLEAR(self->ports);
    Py_CLEAR(self->port_queues);
    Py_CLEAR(self->rr);
    Py_CLEAR(self->pfc_on_admit);
    Py_CLEAR(self->pfc_on_release);
    Py_CLEAR(self->should_mark);
    Py_CLEAR(self->color_classes);
    Py_CLEAR(self->receive_m);
    Py_CLEAR(self->poll_m);
    return 0;
}

static void
sk_dealloc(SwitchKernelObject *self)
{
    PyObject_GC_UnTrack(self);
    sk_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* getattr(obj, name) into *field (replacing what it held). */
static int
bind_attr(PyObject **field, PyObject *obj, PyObject *name)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL)
        return -1;
    Py_XSETREF(*field, v);
    return 0;
}

/* The switch's ECN scheme and config fields, as sk_init binds them. */
static int
sk_bind_config(SwitchKernelObject *self, PyObject *sw)
{
    PyObject *ecn = PyObject_GetAttr(sw, s_ecn), *config = NULL, *k = NULL;
    int rc = -1;
    self->ecn_k = -1;
    if (ecn == NULL ||
        ((PyObject *)Py_TYPE(ecn) == StepEcnCls
             ? ((k = PyObject_GetAttr(ecn, s_k_bytes)) == NULL || as_ll(k, &self->ecn_k) < 0)
             : ecn != Py_None && bind_attr(&self->should_mark, ecn, s_should_mark) < 0))
        goto done;
    Py_CLEAR(k);
    if ((config = PyObject_GetAttr(sw, s_config)) == NULL ||
        bind_attr(&self->color_classes, config, s_color_classes) < 0 ||
        (k = PyObject_GetAttr(config, s_color_threshold_bytes)) == NULL ||
        (self->int_enabled = attr_truth(config, s_int_enabled)) < 0)
        goto done;
    self->color_k = -1;
    if (k != Py_None && !ll_read_fast(k, &self->color_k)) {
        PyErr_SetString(PyExc_TypeError,
                        "compiled backend: color_threshold_bytes must be None or an int >= 0");
        goto done;
    }
    rc = 0;
done:
    Py_XDECREF(ecn);
    Py_XDECREF(config);
    Py_XDECREF(k);
    return rc;
}

static int
sk_init(SwitchKernelObject *self, PyObject *args, PyObject *kwargs)
{
    PyObject *sw;
    if (!PyArg_ParseTuple(args, "O:SwitchKernel", &sw))
        return -1;
    PyObject *engine = PyObject_GetAttr(sw, s_engine);
    if (engine == NULL)
        return -1;
    if (!CEngine_CheckExact(engine)) {
        Py_DECREF(engine);
        PyErr_SetString(PyExc_TypeError,
                        "SwitchKernel requires a switch driven by a CEngine");
        return -1;
    }
    Py_XSETREF(self->engine, (CEngineObject *)engine);
    Py_INCREF(sw);
    Py_XSETREF(self->sw, sw);

    PyObject *fib = PyObject_GetAttr(sw, s_fib);
    if (fib == NULL)
        return -1;
    if (bind_attr(&self->routes, fib, s_routes) < 0 ||
        bind_attr(&self->fib_lookup, fib, s_lookup) < 0) {
        Py_DECREF(fib);
        return -1;
    }
    if (!PyDict_CheckExact(self->routes)) {
        Py_DECREF(fib);
        PyErr_SetString(PyExc_TypeError, "fib._routes must be a dict");
        return -1;
    }
    /* The static hash is open-coded only for an exact Fib whose lookup
     * nobody replaced; every other selector keeps the call. */
    self->ecmp_switch_id = -1;
    if (Py_IS_TYPE(fib, (PyTypeObject *)FibCls) && PyMethod_Check(self->fib_lookup) &&
        PyMethod_GET_FUNCTION(self->fib_lookup) == FibLookupFn) {
        PyObject *sid = PyObject_GetAttr(fib, s_switch_id);
        int rc = sid == NULL ? -1 : as_ll(sid, &self->ecmp_switch_id);
        Py_XDECREF(sid);
        if (rc < 0) {
            Py_DECREF(fib);
            return -1;
        }
    }
    Py_DECREF(fib);

    PyObject *o;
    if (bind_attr(&self->buffer, sw, s_buffer) < 0 || bind_attr(&self->stats, sw, s_stats) < 0 ||
        bind_attr(&self->ports, sw, s_ports) < 0 ||
        bind_attr(&self->port_queues, sw, s_port_queues) < 0 ||
        bind_attr(&self->rr, sw, s_rr) < 0 || sk_bind_config(self, sw) < 0 ||
        dict_attrs(Py_TYPE(sw), s_receive, s_poll, s_audit, s_drop_m, s_drops[0][0],
                   s_drops[1][0], NULL) < 0 ||
        dict_attrs(Py_TYPE(self->stats), s_ecn_marks, NULL) < 0 ||
        (o = PyObject_GetAttr(sw, s_pfc)) == NULL)
        return -1;
    if (!PyList_CheckExact(self->ports) || !PyList_CheckExact(self->port_queues) ||
        !PyList_CheckExact(self->rr) || inst_dict(self->stats) == NULL) {
        Py_DECREF(o);
        PyErr_SetString(PyExc_TypeError, "SwitchKernel needs lists of ports, _port_queues "
                        "and _rr, and stats with an instance dict");
        return -1;
    }
    if (o != Py_None && (bind_attr(&self->pfc_on_admit, o, s_on_admit) < 0 ||
                         bind_attr(&self->pfc_on_release, o, s_on_release) < 0)) {
        Py_DECREF(o);
        return -1;
    }
    Py_DECREF(o);
    if ((o = km_new_internal((PyObject *)self, KM_SWITCH_RECEIVE,
                             "SwitchKernel.receive")) == NULL)
        return -1;
    Py_XSETREF(self->receive_m, o);
    if ((o = km_new_internal((PyObject *)self, KM_SWITCH_POLL,
                             "SwitchKernel.poll")) == NULL)
        return -1;
    Py_XSETREF(self->poll_m, o);
    return 0;
}

static PyMemberDef sk_members[] = {
    {"receive", T_OBJECT, offsetof(SwitchKernelObject, receive_m), READONLY, NULL},
    {"poll", T_OBJECT, offsetof(SwitchKernelObject, poll_m), READONLY, NULL},
    {"switch", T_OBJECT, offsetof(SwitchKernelObject, sw), READONLY, NULL},
    {NULL},
};

static PyTypeObject SwitchKernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ckernel.SwitchKernel",
    .tp_basicsize = sizeof(SwitchKernelObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled enqueue/dequeue/MMU fast path for one Switch.",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)sk_init,
    .tp_dealloc = (destructor)sk_dealloc,
    .tp_traverse = (traverseproc)sk_traverse,
    .tp_clear = (inquiry)sk_clear,
    .tp_members = sk_members,
};

/* -- HostKernel ------------------------------------------------------------ */

static int
c_host_send(HostKernelObject *hk, PyObject *packet)
{
    if (deque_push(DequeAppend, hk->nicqueue, packet) < 0)
        return -1;
    PyObject *port = hk->port;
    int busy = slot_truth(port, P_busy);
    if (busy)
        return busy < 0 ? -1 : 0;
    int paused = slot_truth(port, P_paused);
    if (paused)
        return paused < 0 ? -1 : 0;
    return c_try_kick(port);
}

static PyObject *
c_host_poll(HostKernelObject *hk, PyObject *port)
{
    (void)port;
    if (Py_SIZE(hk->nicqueue) > 0)
        return deque_popleft(hk->nicqueue);
    Py_RETURN_NONE;
}

static PyObject *mod_alloc_packet(PyObject *module, PyObject *const *args,
                                  Py_ssize_t nargs, PyObject *kwnames);

/* Whether `host` is this kernel's and still sends through it: a wrapped
 * or re-bound host.send (fault injection, tracing) forces Python. */
static int
kernel_sends_for(HostKernelObject *hk, PyObject *host)
{
    if (host != hk->host)
        return 0;
    PyObject *send = inst_get(host, s_send_attr);
    Py_XDECREF(send);
    return send == NULL ? -1 : send == hk->send_m;
}

/* The completion edge of ByteStreamReceiver.on_packet: done, the record's
 * end_rx_ns (through the property: its setter moves the group tally the
 * liveness counters rest on) and the flow's on_complete_rx callback.
 * `self.record` is stats.flows.get(flow_id). */
static int
c_receiver_complete(HostKernelObject *hk, PyObject *d, PyObject *spec, PyObject *flows)
{
    PyObject *fid = field_get(spec, s_flow_id_attr);
    PyObject *record = NULL, *now = NULL, *callback = NULL, *r = NULL;
    if (fid == NULL || PyDict_SetItem(d, s_done, Py_True) < 0)
        goto out;
    if ((record = PyDict_GetItemWithError(flows, fid)) == NULL) {
        if (PyErr_Occurred())
            goto out;
        record = Py_None;
    }
    Py_INCREF(record);
    if (record != Py_None &&
        ((now = PyLong_FromLongLong(hk->engine->now)) == NULL ||
         PyObject_SetAttr(record, sn_end_rx_ns, now) < 0))
        goto out;
    if ((callback = field_get(spec, sn_on_complete_rx)) != NULL)
        r = callback == Py_None ? Py_NewRef(Py_None) : PyObject_CallOneArg(callback, record);
out:
    Py_XDECREF(fid);
    Py_XDECREF(record);
    Py_XDECREF(now);
    Py_XDECREF(callback);
    Py_XDECREF(r);
    return r == NULL ? -1 : 0;
}

/* The ACK every delivered DATA packet gets, built and sent through this
 * host's kernel. held[] is {tlt_rx, buffer, spec, config}; `recent` is
 * the island the arrival was merged into, -1 when none remains. */
static int
c_receiver_ack(HostKernelObject *hk, PyObject *packet, PyObject **held, Py_ssize_t recent)
{
    PyObject *tlt_rx = held[0], *buffer = held[1], *spec = held[2], *config = held[3];
    PyObject *intervals = GETSLOT(buffer, R_intervals);
    if (intervals == NULL || !PyList_CheckExact(intervals)) {
        PyErr_SetString(PyExc_TypeError, "compiled receiver path: buffer.intervals replaced");
        return -1;
    }
    Py_ssize_t n = PyList_GET_SIZE(intervals);
    /* alloc_packet(flow_id, dst, src, ACK, 0, 0, rcv_nxt) */
    PyObject *aargs[7] = {field_get(spec, s_flow_id_attr), field_get(spec, s_dst_attr),
                          field_get(spec, s_src_attr),
                          KindACKObj, LLZero, LLZero, GETSLOT(buffer, R_rcv_nxt)};
    PyObject *ack = (aargs[0] == NULL || aargs[1] == NULL || aargs[2] == NULL)
                        ? NULL : mod_alloc_packet(NULL, aargs, 7, NULL);
    for (int i = 0; i < 3; i++)
        Py_XDECREF(aargs[i]);
    if (ack == NULL)
        return -1;
    /* ack.sack = sack_blocks() while islands are outstanding: the
     * island holding last_seq first (RFC 2018: the one just merged,
     * unless it was consumed), then list order, at most 3. With no
     * island the allocator's () stays. */
    if (n > 0) {
        Py_ssize_t nb = 0, order[3];
        if (recent >= 0 && recent < n)
            order[nb++] = recent;
        for (Py_ssize_t i = 0; i < n && nb < 3; i++)
            if (i != recent)
                order[nb++] = i;
        PyObject *sack = PyTuple_New(nb);
        if (sack == NULL)
            goto fail;
        for (Py_ssize_t bi = 0; bi < nb; bi++) {
            PyObject *block = PyList_GET_ITEM(intervals, order[bi]);
            Py_INCREF(block);
            PyTuple_SET_ITEM(sack, bi, block);
        }
        slot_store_obj(ack, K_sack, sack);
        Py_DECREF(sack);
    }
    slot_store_obj(ack, K_ecn_echo, GETSLOT(packet, K_ce));
    slot_store_obj(ack, K_ts_echo, GETSLOT(packet, K_ts_sent));
    PyObject *tc = field_get(config, s_traffic_class);
    if (tc == NULL)
        goto fail;
    slot_store_obj(ack, K_tclass, tc);
    Py_DECREF(tc);
    /* Pure ACKs are control packets: green from the allocator already. */
    slot_store_obj(ack, K_mark, MarkCONTROLObj);
    if (tlt_rx != Py_None) {
        /* TltWindowReceiver.mark_ack + apply_acl (echo marks are green). */
        PyObject *state = inst_peek(tlt_rx, s_state);
        PyObject *echo = state == RecvIMPORTANTObj  ? MarkIMPECHOObj
                         : state == RecvIMPCLOCKObj ? MarkIMPCLOCKECHOObj
                                                    : NULL;
        if (echo != NULL)
            slot_store_obj(ack, K_mark, echo);
        if (state == NULL ||
            (echo != NULL && PyObject_SetAttr(tlt_rx, s_state, RecvIDLEObj) < 0)) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_AttributeError, "compiled receiver path: no tlt_rx.state");
            goto fail;
        }
    } else {
        PyObject *pc = field_get(config, s_plain_color);
        if (pc == NULL)
            goto fail;
        if (pc != Py_None) {
            slot_store_obj(ack, K_color, pc);
            slot_store_obj(ack, K_mark, MarkNONEObj);
        }
        Py_DECREF(pc);
    }
    int status = c_host_send(hk, ack);
    Py_DECREF(ack);
    return status;
fail:
    Py_DECREF(ack);
    return -1;
}

/* DATA delivery to a stock ByteStreamReceiver, without entering
 * Python: TLT receive hook, ReceiverBuffer.on_data in full (stale
 * duplicates, head fills, arrivals inside or between islands), and the
 * per-packet ACK (alloc + SACK blocks + mark + send through this
 * host's own kernel).
 *
 * Returns 1 when handled, 0 to defer to the Python on_packet (subclass
 * or instance overrides, a wrapped host.send, a non-TltWindowReceiver
 * controller, an island list on_data could not have left behind, a
 * completion whose record is not found the stock way), and -1 on error.
 * All eligibility checks run before any mutation so the Python path can
 * always take over from untouched state. */
static int
c_receiver_on_packet(HostKernelObject *hk, PyObject *ep, PyObject *packet)
{
    /* The endpoint must use the stock receive pipeline. Looked up per
     * packet, so monkeypatching a receiver class mid-run is honored;
     * and before the instance dict is asked for, which materializes
     * it: endpoints of other families keep their inline attributes. */
    if (_PyType_Lookup(Py_TYPE(ep), s_on_packet) != BSReceiverOnPacket)
        return 0;
    PyObject **dictptr = _PyObject_GetDictPtr(ep);
    if (dictptr == NULL || *dictptr == NULL || !PyDict_CheckExact(*dictptr))
        return 0;
    PyObject *d = *dictptr;  /* borrowed */
    if (PyDict_GetItemWithError(d, s_on_packet) != NULL)
        return 0;  /* per-instance override */

    PyObject *tlt_rx = PyDict_GetItemWithError(d, s_tlt_rx);
    PyObject *buffer = PyDict_GetItemWithError(d, s_buffer);
    PyObject *done = PyDict_GetItemWithError(d, s_done);
    PyObject *spec = PyDict_GetItemWithError(d, s_spec);
    PyObject *config = PyDict_GetItemWithError(d, s_config);
    PyObject *rhost = PyDict_GetItemWithError(d, s_host_attr);
    if (tlt_rx == NULL || buffer == NULL || done == NULL || spec == NULL ||
        config == NULL || rhost == NULL)
        return PyErr_Occurred() ? -1 : 0;
    if ((tlt_rx != Py_None && (Py_TYPE(tlt_rx) != (PyTypeObject *)TltWindowReceiverCls ||
                               inst_peek(tlt_rx, s_state) == NULL)) ||
        Py_TYPE(buffer) != (PyTypeObject *)ReceiverBufferCls)
        return 0;
    int own_send = kernel_sends_for(hk, rhost);  /* the ACK leaves through it */
    if (own_send <= 0)
        return own_send;

    long long seq, payload, rcv_nxt;
    PyObject *intervals = GETSLOT(buffer, R_intervals);
    if (!slot_fast(packet, K_seq, &seq) || !slot_fast(packet, K_payload, &payload) ||
        payload <= 0 || !slot_fast(buffer, R_rcv_nxt, &rcv_nxt) ||
        intervals == NULL || !PyList_CheckExact(intervals))
        return 0;

    /* ReceiverBuffer.on_data's merge, computed on the side: the run
     * [first, last) of islands the arrival touches or overlaps and the
     * island [start, end) that replaces it. The islands must be what
     * on_data leaves behind: (lo, hi) int pairs, sorted, never
     * adjacent, all above rcv_nxt. */
    long long start = seq > rcv_nxt ? seq : rcv_nxt, end = seq + payload;
    int stale = end <= rcv_nxt;  /* stale duplicate: only last_seq moves */
    Py_ssize_t n = PyList_GET_SIZE(intervals), first = 0, last = 0;
    long long lo, hi, prev_hi = rcv_nxt;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *island = PyList_GET_ITEM(intervals, i);
        if (!PyTuple_CheckExact(island) || PyTuple_GET_SIZE(island) != 2 ||
            !ll_read_fast(PyTuple_GET_ITEM(island, 0), &lo) ||
            !ll_read_fast(PyTuple_GET_ITEM(island, 1), &hi) ||
            lo <= prev_hi || hi <= lo)
            return 0;
        prev_hi = hi;
        if (stale || last != i)
            continue;  /* the run has ended */
        if (first == i && hi < start) {
            first = last = i + 1;  /* wholly below the arrival */
        } else if (lo <= end) {
            if (lo < start)
                start = lo;
            if (hi > end)
                end = hi;
            last = i + 1;
        }
    }
    /* on_data's advance loop, decided here: with every island above
     * rcv_nxt and apart from the next, the merged island is consumed
     * iff it starts at rcv_nxt (then first == 0), and nothing after it
     * can be. */
    int advances = !stale && start <= rcv_nxt;

    /* The completion edge: done, the record, the callback. Its own
     * conditions first: the stock `record` property over a plain dict of
     * flows, and this host's clock. */
    int completes = truth(done);
    PyObject *stats, *flows = NULL;
    long long spec_size;
    if (completes < 0)
        return -1;
    if ((completes = !completes)) {
        if (attr_ll(spec, s_size_attr, &spec_size) < 0) {
            PyErr_Clear();
            return 0;
        }
        completes = (advances ? end : rcv_nxt) >= spec_size;
    }
    if (completes) {
        if (_PyType_Lookup(Py_TYPE(ep), sn_record) != ReceiverRecordProp ||
            PyDict_GetItemWithError(d, s_engine) != (PyObject *)hk->engine ||
            (stats = PyDict_GetItemWithError(d, s_stats)) == NULL)
            return 0;
        if ((flows = PyObject_GetAttr(stats, sn_flows)) == NULL)
            return -1;
        if (!PyDict_CheckExact(flows)) {
            Py_DECREF(flows);
            return 0;
        }
    }

    /* -- eligibility established; mutate ---------------------------------- */

    /* What is used after the completion callback is held across it: it
     * runs message handlers, which create flows on this very host. */
    PyObject *held[5] = {tlt_rx, buffer, spec, config, flows};
    for (int i = 0; i < 4; i++)  /* flows is ours already */
        Py_INCREF(held[i]);
    int status = -1;

    /* TltWindowReceiver.on_data, inlined (enum members are singletons). */
    if (tlt_rx != Py_None) {
        PyObject *mark = GETSLOT(packet, K_mark);
        PyObject *state = mark == MarkIMPDATAObj        ? RecvIMPORTANTObj
                          : mark == MarkIMPCLOCKDATAObj ? RecvIMPCLOCKObj
                                                        : NULL;
        if (state != NULL && PyObject_SetAttr(tlt_rx, s_state, state) < 0)
            goto out;
    }

    slot_store_obj(buffer, R_last_seq, GETSLOT(packet, K_seq));
    if (advances) {
        if (slot_store_ll(buffer, R_rcv_nxt, end) < 0 ||
            (last > 0 && PyList_SetSlice(intervals, 0, last, NULL) < 0))
            goto out;
    } else if (!stale) {
        /* intervals[first:last] = [(start, end)] */
        PyObject *island = Py_BuildValue("(LL)", start, end);
        if (island == NULL)
            goto out;
        int rc;
        if (last == first) {
            rc = PyList_Insert(intervals, first, island);
            Py_DECREF(island);
        } else {
            rc = PyList_SetItem(intervals, first, island);  /* steals island */
            if (rc == 0 && last - first > 1)
                rc = PyList_SetSlice(intervals, first + 1, last, NULL);
        }
        if (rc < 0)
            goto out;
    }
    if (!completes || c_receiver_complete(hk, d, spec, flows) == 0)
        status = c_receiver_ack(hk, packet, held, (stale || advances) ? -1 : first);
out:
    for (int i = 0; i < 4 + completes; i++)
        Py_DECREF(held[i]);
    return status < 0 ? -1 : 1;
}

/* -- The byte-stream sender's ACK path --------------------------------------
 *
 * c_sender_on_packet transcribes ByteStreamSender.on_packet for ACKs, with
 * the reliable-delivery core's methods named in CoreMethodNames, the stock
 * RtoEstimator.on_rtt_sample and a Reservoir.add below capacity inlined.
 * repro.transport stays the reference: the pure backend and every hand-back
 * run it. What stays a Python call, made by name where on_packet makes it:
 * tlt.on_ack, _on_loss_detected, cc_on_ack, _complete, tlt.after_ack while
 * the Important state is armed, and try_send for a sender c_sender_burst
 * (below) cannot run. Sender state lives in the instance dict and is read
 * from it again after every call that can run transport code. */

/* Which captured name sets `tp` resolves to the functions captured at
 * import: STOCK_CORE (CoreNames), STOCK_BURST (BurstNames but start),
 * STOCK_START. Kept per type while its version tag holds: an assignment
 * to the type or a base (a class monkeypatched mid-run) clears the tag,
 * and the next packet asks again. */
enum { STOCK_CORE = 1, STOCK_BURST = 2, STOCK_START = 4 };

static int
type_stock(PyTypeObject *tp)
{
    static struct { PyTypeObject *tp; unsigned int tag; int mask; } seen[4];
    int slot = (int)(((uintptr_t)tp >> 4) & 3), mask = STOCK_CORE | STOCK_BURST | STOCK_START;
    if (seen[slot].tp == tp && seen[slot].tag == tp->tp_version_tag &&
        PyType_HasFeature(tp, Py_TPFLAGS_VALID_VERSION_TAG))
        return seen[slot].mask;
    for (int i = 0; i < N_CORE; i++)
        if (_PyType_Lookup(tp, CoreNames[i]) != CoreFns[i])
            mask &= ~STOCK_CORE;
    for (int i = 0; i < N_BURST; i++)
        if (_PyType_Lookup(tp, BurstNames[i]) != BurstFns[i])
            mask &= i < N_BURST - 1 ? ~STOCK_BURST : ~STOCK_START;
    if (PyType_HasFeature(tp, Py_TPFLAGS_VALID_VERSION_TAG)) {
        seen[slot].tp = tp;
        seen[slot].tag = tp->tp_version_tag;
        seen[slot].mask = mask;
    }
    return mask;
}

/* Small non-negative int from an instance dict (the keys are interned
 * strs, so the lookup cannot raise). While eligibility is being decided
 * a miss returns 0; once the packet is ours (`strict`) it raises. */
static int
dict_ll(PyObject *d, PyObject *name, long long *out, int strict)
{
    PyObject *v = PyDict_GetItemWithError(d, name);
    if (v != NULL && ll_read_fast(v, out))
        return 1;
    if (strict)
        PyErr_Format(PyExc_TypeError, "compiled backend: %U is missing or not a small int", name);
    return 0;
}

static int
dict_truth(PyObject *d, PyObject *name)
{
    PyObject *v = PyDict_GetItemWithError(d, name);
    if (v != NULL)
        return truth(v);
    PyErr_Format(PyExc_AttributeError, "compiled ACK path: sender has no %U", name);
    return -1;
}

static int
dict_set_ll(PyObject *d, PyObject *name, long long v)
{
    PyObject *o = PyLong_FromLongLong(v);
    int rc = o == NULL ? -1 : PyDict_SetItem(d, name, o);
    Py_XDECREF(o);
    return rc;
}

/* d[name] += delta, for a counter that must be there. */
static int
dict_add(PyObject *d, PyObject *name, long long delta)
{
    long long v;
    return dict_ll(d, name, &v, 1) ? dict_set_ll(d, name, v + delta) : -1;
}

/* rto.on_rtt_sample(rtt): RtoEstimator.on_rtt_sample inlined for the
 * stock estimator, the call for anything else. */
static int
c_rtt_sample(PyObject *rto, long long rtt)
{
    long long srtt, rttvar, granularity, rto_min, base_max;
    PyTypeObject *tp = Py_TYPE(rto);
    if (tp != RtoEstimatorCls || _PyType_Lookup(tp, sn_on_rtt_sample) != RtoSampleFn ||
        !slot_fast(rto, T_srtt, &srtt) || !slot_fast(rto, T_rttvar, &rttvar) ||
        !slot_fast(rto, T_granularity, &granularity) ||
        !slot_fast(rto, T_rto_min, &rto_min) || !slot_fast(rto, T_base_max, &base_max)) {
        PyObject *v = PyLong_FromLongLong(rtt);
        int rc = v == NULL ? -1 : call_method(rto, sn_on_rtt_sample, v, NULL);
        Py_XDECREF(v);
        return rc;
    }
    if (rtt <= 0)
        rtt = 1;
    if (srtt == 0) {
        srtt = rtt;
        rttvar = rtt / 2;
    } else {  /* C division rounds toward zero, as on_rtt_sample does */
        long long delta = srtt > rtt ? srtt - rtt : rtt - srtt;
        rttvar += (delta - rttvar) / 4;
        srtt += (rtt - srtt) / 8;
    }
    long long base = 4 * rttvar < granularity ? granularity : 4 * rttvar;
    base += srtt;
    base = base < rto_min ? rto_min : base > base_max ? base_max : base;
    if (slot_store_ll(rto, T_srtt, srtt) < 0 || slot_store_ll(rto, T_rttvar, rttvar) < 0 ||
        slot_store_ll(rto, T_base_rto, base) < 0)
        return -1;
    slot_store_obj(rto, T_backoff_count, LLZero);
    slot_store_obj(rto, T_current, GETSLOT(rto, T_base_rto));
    return 0;
}

/* rto.<name>, the slot at `off` of a stock estimator; getattr otherwise. */
static int
rto_ll(PyObject *rto, Py_ssize_t off, PyObject *name, long long *out)
{
    if (Py_IS_TYPE(rto, RtoEstimatorCls) && slot_fast(rto, off, out))
        return 0;
    return attr_ll(rto, name, out);
}

/* adder(value) for the sender's bound _add_rtt_sample and
 * _add_delivery_sample: Reservoir.add's append inlined while the
 * reservoir is below capacity, the call otherwise (at capacity it draws
 * from the reservoir's seeded RNG). */
static int
c_sample_add(PyObject *adder, long long value)
{
    PyObject *v = PyLong_FromLongLong(value), *samples;
    long long capacity, seen;
    int rc = -1;
    if (v == NULL)
        return -1;
    if (PyMethod_Check(adder) && PyMethod_GET_FUNCTION(adder) == ReservoirAddFn &&
        Py_TYPE(PyMethod_GET_SELF(adder)) == ReservoirCls &&
        (samples = GETSLOT(PyMethod_GET_SELF(adder), V_samples)) != NULL &&
        PyList_CheckExact(samples) &&
        slot_fast(PyMethod_GET_SELF(adder), V_capacity, &capacity) &&
        slot_fast(PyMethod_GET_SELF(adder), V_seen, &seen) &&
        PyList_GET_SIZE(samples) < capacity) {
        if (slot_store_ll(PyMethod_GET_SELF(adder), V_seen, seen + 1) == 0)
            rc = list_append_fast(samples, v);
    } else {
        Py_INCREF(adder);  /* held across the call, as a Python caller would */
        PyObject *r = PyObject_CallOneArg(adder, v);
        Py_DECREF(adder);
        Py_XDECREF(r);
        rc = r == NULL ? -1 : 0;
    }
    Py_DECREF(v);
    return rc;
}

/* One scoreboard entry, read whole. Raises unless it is a stock Entry
 * holding ints: nothing in the transports builds anything else. */
typedef struct {
    long long n[EN_COUNT];
    int f[EF_COUNT];
} EntryView;

static int
entry_load(PyObject *entry, EntryView *ev)
{
    int ok = Py_TYPE(entry) == EntryCls;
    for (int i = 0; ok && i < EN_COUNT; i++) {
        PyObject *v = GETSLOT(entry, EntryIntOff[i]);
        ok = v != NULL && ll_read_signed(v, &ev->n[i]);
    }
    for (int i = 0; ok && i < EF_COUNT; i++) {
        PyObject *v = GETSLOT(entry, EntryFlagOff[i]);
        ok = v != NULL && (ev->f[i] = truth(v)) >= 0;
    }
    if (!ok && !PyErr_Occurred())
        PyErr_SetString(PyExc_TypeError,
                        "compiled ACK path: scoreboard entry is not a stock Entry");
    return ok ? 0 : -1;
}

#define ENTRY_SET(entry, flag, truth) slot_store_bool(entry, EntryFlagOff[flag], truth)
#define ENTRY_OPEN(ev) (!((ev).f[EF_ACKED] || (ev).f[EF_SACKED] || (ev).f[EF_LOST]))

/* The scoreboard of one sender: borrowed from its instance dict, valid
 * until the next call that can run transport code. `pipe` is written
 * back by sb_flush_pipe, at the latest before such a call. */
typedef struct {
    PyObject *d;
    PyObject *entries, *retx, *lost_queue, *add_delivery;
    Py_ssize_t n;            /* len(entries) */
    long long head, pipe, pipe_stored, now;
    PyObject *marked;        /* owned: entries marked lost, NULL while empty */
} Scoreboard;

static int
sb_load(Scoreboard *sb, PyObject *d, int strict)
{
    sb->d = d;
    sb->entries = PyDict_GetItemWithError(d, sn_entries);
    sb->retx = PyDict_GetItemWithError(d, sn__retx_inflight);
    sb->lost_queue = PyDict_GetItemWithError(d, sn_lost_queue);
    sb->add_delivery = PyDict_GetItemWithError(d, sn__add_delivery_sample);
    if (sb->entries == NULL || !PyList_CheckExact(sb->entries) || sb->retx == NULL ||
        !PyDict_CheckExact(sb->retx) || sb->lost_queue == NULL ||
        !Py_IS_TYPE(sb->lost_queue, DequeCls) || sb->add_delivery == NULL) {
        if (strict)
            PyErr_SetString(PyExc_TypeError,
                            "compiled ACK path: a callback replaced the scoreboard");
        return 0;
    }
    sb->n = PyList_GET_SIZE(sb->entries);
    if (!dict_ll(d, sn__head, &sb->head, strict) || !dict_ll(d, sn_pipe, &sb->pipe, strict))
        return 0;
    sb->pipe_stored = sb->pipe;
    return 1;
}

static int
sb_flush_pipe(Scoreboard *sb)
{
    if (sb->pipe == sb->pipe_stored)
        return 0;
    sb->pipe_stored = sb->pipe;
    return dict_set_ll(sb->d, sn_pipe, sb->pipe);
}

/* `if entry.in_pipe: entry.in_pipe = False; pipe -= entry.weight`, then
 * `_retx_inflight.pop(entry, None)`: the tail of every entry transition. */
static int
sb_leave_pipe(Scoreboard *sb, PyObject *entry, const EntryView *ev)
{
    if (ev->f[EF_IN_PIPE]) {
        ENTRY_SET(entry, EF_IN_PIPE, 0);
        sb->pipe -= ev->n[EN_WEIGHT];
    }
    if (PyDict_GET_SIZE(sb->retx) == 0)
        return 0;
    int has = PyDict_Contains(sb->retx, entry);
    return has <= 0 ? has : PyDict_DelItem(sb->retx, entry);
}

/* What _ack_to (flag EF_ACKED) and _apply_sack (EF_SACKED) do to an
 * entry that has just been acknowledged. */
static int
sb_resolve(Scoreboard *sb, PyObject *entry, const EntryView *ev, int flag)
{
    if (!ev->f[EF_DELIVERED]) {
        ENTRY_SET(entry, EF_DELIVERED, 1);
        if (c_sample_add(sb->add_delivery, sb->now - ev->n[EN_FIRST_TX]) < 0)
            return -1;
    }
    ENTRY_SET(entry, flag, 1);
    ENTRY_SET(entry, EF_LOST, 0);
    return sb_leave_pipe(sb, entry, ev);
}

/* `self._mark_lost(entry); marked.append(entry)` */
static int
sb_mark_lost(Scoreboard *sb, PyObject *entry, const EntryView *ev)
{
    ENTRY_SET(entry, EF_LOST, 1);
    if (sb_leave_pipe(sb, entry, ev) < 0 ||
        deque_push(DequeAppend, sb->lost_queue, entry) < 0 ||
        (sb->marked == NULL && (sb->marked = PyList_New(0)) == NULL))
        return -1;
    return PyList_Append(sb->marked, entry);
}

/* `if marked: self._on_loss_detected(marked)` */
static int
sb_on_loss(Scoreboard *sb, PyObject *ep)
{
    if (sb_flush_pipe(sb) < 0)
        return -1;
    if (sb->marked == NULL)
        return 0;
    int rc = call_method(ep, sn__on_loss_detected, sb->marked, NULL);
    Py_CLEAR(sb->marked);
    return rc;
}

/* _detect_losses(), on a freshly loaded scoreboard; `dup_rule` is
 * `self.dupacks >= DUPACK_THRESHOLD` (1). */
static int
sb_detect_losses(Scoreboard *sb, PyObject *ep, long long srtt, int dup_rule)
{
    long long scan_hint, highest;
    EntryView ev;
    PyObject *entry;
    if (!dict_ll(sb->d, sn__scan_hint, &scan_hint, 1) ||
        !dict_ll(sb->d, sn__highest_sacked, &highest, 1))
        return -1;
    /* 1. never-retransmitted holes below the highest SACK */
    Py_ssize_t idx = sb->head > scan_hint ? sb->head : scan_hint;
    for (; idx < sb->n; idx++) {
        entry = PyList_GET_ITEM(sb->entries, idx);
        if (entry_load(entry, &ev) < 0)
            return -1;
        if (ev.n[EN_END] > highest)
            break;
        if (ENTRY_OPEN(ev) && ev.n[EN_RETX_COUNT] == 0 && sb_mark_lost(sb, entry, &ev) < 0)
            return -1;
    }
    if (idx != scan_hint && dict_set_ll(sb->d, sn__scan_hint, idx) < 0)
        return -1;
    /* 2. on a duplicate ACK the head-of-line entry */
    if (dup_rule && sb->head < sb->n) {
        entry = PyList_GET_ITEM(sb->entries, sb->head);
        if (entry_load(entry, &ev) < 0 ||
            (ENTRY_OPEN(ev) &&
             (ev.n[EN_RETX_COUNT] == 0 || ev.n[EN_LAST_TX] + srtt <= sb->now) &&
             sb_mark_lost(sb, entry, &ev) < 0))
            return -1;
    }
    /* 3. retransmissions aged a full SRTT below the highest SACK; over a
     * snapshot of the keys, because marking edits the dict */
    if (PyDict_GET_SIZE(sb->retx) > 0) {
        PyObject *inflight = PyDict_Keys(sb->retx);
        int rc = inflight == NULL ? -1 : 0;
        for (Py_ssize_t i = 0; rc == 0 && i < PyList_GET_SIZE(inflight); i++) {
            entry = PyList_GET_ITEM(inflight, i);
            rc = entry_load(entry, &ev);
            if (rc == 0 && ev.n[EN_END] <= highest && ev.n[EN_LAST_TX] + srtt <= sb->now)
                rc = sb_mark_lost(sb, entry, &ev);
        }
        Py_XDECREF(inflight);
        if (rc < 0)
            return -1;
    }
    return sb_on_loss(sb, ep);
}

/* _restart_rto(): move the deadline; the timer event is armed once and
 * re-arms itself (_rto_fire) while a deadline stands. */
static int
c_restart_rto(HostKernelObject *hk, PyObject *ep, PyObject *d, PyObject *rto, long long now)
{
    long long current;
    if (rto_ll(rto, T_current, sn_current, &current) < 0 ||
        dict_set_ll(d, sn__rto_deadline, now + current) < 0)
        return -1;
    if (PyDict_GetItemWithError(d, sn__rto_event) != Py_None)
        return 0;
    PyObject *fire = PyObject_GetAttr(ep, sn__rto_fire);
    PyObject *event = fire == NULL ? NULL : cengine_schedule_timer_common(
        hk->engine, now + current, fire, EmptyTuple);
    int rc = event == NULL ? -1 : PyDict_SetItem(d, sn__rto_event, event);
    Py_XDECREF(fire);
    Py_XDECREF(event);
    return rc;
}

/* -- The byte-stream sender's send path --------------------------------------
 *
 * c_sender_burst transcribes ByteStreamSender.try_send with _next_lost,
 * Entry creation, _transmit, _record_tx, _is_last_allowed,
 * TltWindowSender.mark_data and the first-transmit _restart_rto. It runs
 * where on_packet calls try_send and, through cengine_dispatch, in place of
 * a flow's start() event. A burst is a clean call boundary: a sender or
 * controller it cannot transcribe gets try_send (or start) by name, on
 * untouched state. _arm_pto stays a call by name, made where _transmit
 * makes it. Per packet the order is _transmit's: _record_tx, retx_bytes,
 * alloc, fields, tx_bytes, mark, host.send, _restart_rto, _arm_pto. */

/* Whether no name of names[0:n] is in the instance dict `d`. */
static int
dict_lacks(PyObject *d, PyObject *const *names, int n)
{
    for (int i = 0; i < n; i++)
        if (PyDict_GetItemWithError(d, names[i]) != NULL)
            return 0;
    return 1;
}

/* slot += delta on an int slot (FlowRecord.tx_bytes / retx_bytes). */
static int
slot_add(PyObject *obj, Py_ssize_t off, long long delta)
{
    long long v;
    return slot_ll(obj, off, &v) < 0 ? -1 : slot_store_ll(obj, off, v + delta);
}

/* Entry(start, end, weight), through tp_alloc: eligibility has checked
 * that Entry.__init__ is the one this mirrors. Fills *ev to match; the
 * -1 of first_tx_ns/last_tx_ns is in the view only, the _record_tx that
 * follows writes both slots. */
static PyObject *
entry_new(PyObject *start, long long end, long long weight, EntryView *ev)
{
    PyObject *entry = EntryCls->tp_alloc(EntryCls, 0);
    if (entry == NULL)
        return NULL;
    slot_store_obj(entry, EntryIntOff[EN_START], start);
    if (slot_store_ll(entry, EntryIntOff[EN_END], end) < 0 ||
        slot_store_ll(entry, EntryIntOff[EN_WEIGHT], weight) < 0) {
        Py_DECREF(entry);
        return NULL;
    }
    slot_store_obj(entry, EntryIntOff[EN_RETX_COUNT], LLZero);
    memset(ev, 0, sizeof *ev);
    for (int i = 0; i < EF_COUNT; i++)
        ENTRY_SET(entry, i, 0);
    ev->n[EN_END] = end;
    ev->n[EN_WEIGHT] = weight;
    ev->n[EN_FIRST_TX] = ev->n[EN_LAST_TX] = -1;
    return entry;
}

/* _record_tx(entry, now); returns is_retx, -1 on error. */
static int
sb_record_tx(Scoreboard *sb, PyObject *entry, const EntryView *ev, PyObject *now)
{
    int is_retx = ev->n[EN_FIRST_TX] >= 0;
    if (is_retx) {
        if (slot_store_ll(entry, EntryIntOff[EN_RETX_COUNT], ev->n[EN_RETX_COUNT] + 1) < 0 ||
            PyDict_SetItem(sb->retx, entry, Py_None) < 0)
            return -1;
        ENTRY_SET(entry, EF_LOST, 0);
    } else
        slot_store_obj(entry, EntryIntOff[EN_FIRST_TX], now);
    slot_store_obj(entry, EntryIntOff[EN_LAST_TX], now);
    if (!ev->f[EF_IN_PIPE]) {
        ENTRY_SET(entry, EF_IN_PIPE, 1);
        sb->pipe += ev->n[EN_WEIGHT];
    }
    return is_retx;
}

/* One burst. own[] holds what it keeps across the _arm_pto call. */
enum { BO_TLT, BO_STATS, BO_RECORD, BO_RTO, BO_NOW, BO_FLOW_ID, BO_SRC, BO_DST,
       BO_ECN, BO_TCLASS, BO_PLAIN, BO_NXT, BO_HEAD, BO_COUNT };
typedef struct {
    Scoreboard sb;
    PyObject *ep, *own[BO_COUNT];
    PyObject *counters;      /* tlt.stats.__dict__, borrowed from own[BO_STATS] */
    long long cwnd, mss, spec_size, snd_nxt;
    int tlp;                 /* config.recovery.tlp */
    /* burst_peek: own[BO_HEAD] (view in `hev`) or `size` bytes of new data */
    EntryView hev;
    long long size;
    int allowed;
} Burst;

/* What try_send's loop does next, with _next_lost's side effect (stale
 * heads leave the queue): retransmit the head of the lost queue, or send
 * `size` bytes of new data, if the window allows. _is_last_allowed is the
 * same predicate negated, asked after the previous segment was recorded;
 * nothing between the two can change the answer, so it is taken once. */
static int
burst_peek(Burst *b)
{
    Scoreboard *sb = &b->sb;
    Py_CLEAR(b->own[BO_HEAD]);
    for (;;) {
        Py_ssize_t queued = deque_len(sb->lost_queue);
        if (queued <= 0) {
            if (queued < 0)
                return -1;
            break;
        }
        PyObject *entry = PySequence_GetItem(sb->lost_queue, 0);
        if (entry == NULL || entry_load(entry, &b->hev) < 0) {
            Py_XDECREF(entry);
            return -1;
        }
        if (b->hev.f[EF_LOST]) {
            b->own[BO_HEAD] = entry;
            b->allowed = sb->pipe + b->hev.n[EN_WEIGHT] <= b->cwnd;
            return 0;
        }
        Py_DECREF(entry);
        if ((entry = deque_popleft(sb->lost_queue)) == NULL)
            return -1;
        Py_DECREF(entry);
    }
    long long remaining = b->spec_size - b->snd_nxt;
    b->size = remaining <= 0 ? 0 : b->mss < remaining ? b->mss : remaining;
    b->allowed = b->size > 0 && sb->pipe + b->size <= b->cwnd;
    return 0;
}

/* TltWindowSender.mark_data(packet): the tail of the burst takes the
 * important mark while the controller has one to place; then apply_acl
 * and the color counters (of tlt.stats, not the sender's). */
static int
burst_mark(Burst *b, PyObject *packet, long long payload)
{
    PyObject *tlt = b->own[BO_TLT], *state = inst_peek(tlt, s_state);
    if (state == NULL) {
        PyErr_SetString(PyExc_AttributeError, "compiled send path: the controller lost its state");
        return -1;
    }
    int important = state == SendIMPORTANTObj && !b->allowed;
    if (important) {  /* green from the allocator already */
        slot_store_obj(packet, K_mark, MarkIMPDATAObj);
        if (PyObject_SetAttr(tlt, s_state, SendIDLEObj) < 0)
            return -1;
    } else
        slot_store_obj(packet, K_color, ColorREDObj);
    PyObject *pkts = important ? sn_green_data_packets : sn_red_data_packets;
    PyObject *bytes = important ? sn_green_data_bytes : sn_red_data_bytes;
    return dict_add(b->counters, pkts, 1) < 0 ? -1 : dict_add(b->counters, bytes, payload);
}

/* One turn of try_send's loop once burst_peek allowed it: take the
 * segment, _transmit it, and peek again where mark_data would ask. */
static int
burst_transmit(HostKernelObject *hk, Burst *b)
{
    Scoreboard *sb = &b->sb;
    PyObject *d = sb->d, *seg = b->own[BO_HEAD], *now = b->own[BO_NOW], *packet = NULL;
    EntryView ev = b->hev;
    if (seg != NULL) {
        b->own[BO_HEAD] = NULL;  /* the reference is `seg` now */
        PyObject *popped = deque_popleft(sb->lost_queue);
        if (popped == NULL)
            goto fail;
        Py_DECREF(popped);
    } else {
        /* seg = Entry(snd_nxt, snd_nxt + size, size); entries.append(seg);
         * self.snd_nxt = seg.end */
        seg = entry_new(b->own[BO_NXT], b->snd_nxt + b->size, b->size, &ev);
        if (seg == NULL)
            return -1;
        PyObject *end = GETSLOT(seg, EntryIntOff[EN_END]);
        if (list_append_fast(sb->entries, seg) < 0 || PyDict_SetItem(d, sn_snd_nxt, end) < 0)
            goto fail;
        Py_SETREF(b->own[BO_NXT], Py_NewRef(end));
        sb->n++;
        b->snd_nxt += b->size;
    }
    long long size = ev.n[EN_WEIGHT];
    int is_retx = sb_record_tx(sb, seg, &ev, now);
    if (is_retx < 0 || (is_retx && slot_add(b->own[BO_RECORD], F_retx_bytes, size) < 0))
        goto fail;
    PyObject *args[6] = {b->own[BO_FLOW_ID], b->own[BO_SRC], b->own[BO_DST], KindDATAObj,
                         GETSLOT(seg, EntryIntOff[EN_START]),
                         GETSLOT(seg, EntryIntOff[EN_WEIGHT])};
    if ((packet = mod_alloc_packet(NULL, args, 6, NULL)) == NULL)
        goto fail;
    slot_store_obj(packet, K_ecn_capable, b->own[BO_ECN]);
    slot_store_obj(packet, K_ts_sent, now);
    slot_store_obj(packet, K_tclass, b->own[BO_TCLASS]);
    slot_store_obj(packet, K_is_retx, is_retx ? Py_True : Py_False);
    if (slot_add(b->own[BO_RECORD], F_tx_bytes, size) < 0 || burst_peek(b) < 0)
        goto fail;
    if (b->own[BO_TLT] != Py_None) {
        if (burst_mark(b, packet, size) < 0)
            goto fail;
    } else if (b->own[BO_PLAIN] != Py_None)
        slot_store_obj(packet, K_color, b->own[BO_PLAIN]);
    if (c_host_send(hk, packet) < 0)
        goto fail;
    Py_CLEAR(packet);
    Py_CLEAR(seg);
    if (PyDict_GetItemWithError(d, sn__rto_deadline) == Py_None &&
        c_restart_rto(hk, b->ep, d, b->own[BO_RTO], sb->now) < 0)
        return -1;
    if (b->tlp) {
        int probing = dict_truth(d, sn__probe_outstanding);
        /* _arm_pto() can run anything: flush before, read again after */
        if (probing < 0 ||
            (!probing && (sb_flush_pipe(sb) < 0 ||
                          call_method(b->ep, sn__arm_pto, NULL, NULL) < 0 ||
                          !sb_load(sb, d, 1) || burst_peek(b) < 0)))
            return -1;
    }
    return 0;
fail:
    Py_XDECREF(packet);
    Py_XDECREF(seg);
    return -1;
}

/* The collaborators of a burst, all checked before anything changes:
 * 1 with b->own[] filled, 0 for try_send by name (the caller releases
 * own[] either way), -1 on error. */
static int
burst_prepare(HostKernelObject *hk, Burst *b, PyObject *spec, int starting)
{
    PyObject *d = b->sb.d, *ep = b->ep, **own = b->own;
    PyObject *record = PyDict_GetItemWithError(d, sn_record);
    PyObject *tlt = PyDict_GetItemWithError(d, sn_tlt), *rto = PyDict_GetItemWithError(d, sn_rto);
    PyObject *config = PyDict_GetItemWithError(d, s_config);
    long long v;
    if (record == NULL || Py_TYPE(record) != FlowRecordCls || tlt == NULL || rto == NULL ||
        config == NULL || !slot_fast(record, F_tx_bytes, &v) ||
        !slot_fast(record, F_retx_bytes, &v) ||
        PyDict_GetItemWithError(d, sn__rto_deadline) == NULL ||
        PyDict_GetItemWithError(TransportBaseDict, s_alloc_packet) != AllocPacketC ||
        _PyType_Lookup(EntryCls, s_init) != EntryInitFn)
        return 0;
    int own_send = kernel_sends_for(hk, PyDict_GetItemWithError(d, s_host_attr));
    if (own_send <= 0)
        return own_send;
    own[BO_RECORD] = Py_NewRef(record);
    own[BO_NXT] = Py_NewRef(PyDict_GetItemWithError(d, sn_snd_nxt));  /* read by the caller */
    own[BO_RTO] = Py_NewRef(rto);
    own[BO_TLT] = Py_NewRef(tlt);
    if (tlt != Py_None) {
        /* an exact TltWindowSender of this sender, marking with the stock
         * mark_data */
        PyObject *stats;
        if (!Py_IS_TYPE(tlt, TltWindowSenderCls) || !method_is(tlt, sn_mark_data, TltMarkDataFn) ||
            inst_peek(tlt, sn_sender) != ep || inst_peek(tlt, s_state) == NULL ||
            (stats = inst_peek(tlt, s_stats)) == NULL || !Py_IS_TYPE(stats, NetStatsCls) ||
            (b->counters = inst_dict(stats)) == NULL)
            return 0;
        own[BO_STATS] = Py_NewRef(stats);
    }
    int handshake = starting ? attr_truth(config, sn_handshake) : 0;
    if (handshake)
        return handshake < 0 ? -1 : 0;  /* start() sends the SYN */
    PyObject *recovery = field_get(config, sn_recovery);
    b->tlp = recovery == NULL ? -1 : attr_truth(recovery, sn_tlp);
    Py_XDECREF(recovery);
    if (b->tlp < 0 || (own[BO_ECN] = field_get(config, s_ecn)) == NULL ||
        (own[BO_TCLASS] = field_get(config, s_traffic_class)) == NULL ||
        (own[BO_PLAIN] = field_get(config, s_plain_color)) == NULL ||
        (own[BO_FLOW_ID] = field_get(spec, s_flow_id_attr)) == NULL ||
        (own[BO_SRC] = field_get(spec, s_src_attr)) == NULL ||
        (own[BO_DST] = field_get(spec, s_dst_attr)) == NULL ||
        (own[BO_NOW] = PyLong_FromLongLong(b->sb.now)) == NULL)
        return -1;
    return 1;
}

/* try_send() for a stock sender; with `starting`, start()'s
 * `started = True; established = True` first. Returns 1 when done, 0 for
 * the call by name (nothing has changed), -1 on error. */
static int
c_sender_burst(HostKernelObject *hk, PyObject *ep, PyObject *d, int starting)
{
    int stock = starting ? STOCK_BURST | STOCK_START : STOCK_BURST;
    if ((type_stock(Py_TYPE(ep)) & stock) != stock || !dict_lacks(d, BurstNames, N_BURST - !starting))
        return 0;
    PyObject *started = PyDict_GetItemWithError(d, sn_started);
    PyObject *established = PyDict_GetItemWithError(d, sn_established);
    PyObject *completed = PyDict_GetItemWithError(d, sn_completed);
    PyObject *spec = PyDict_GetItemWithError(d, s_spec), *size;
    Burst b;
    memset(&b, 0, sizeof b);
    b.ep = ep;
    if (started == NULL || established == NULL || completed == NULL || spec == NULL ||
        PyDict_GetItemWithError(d, s_engine) != (PyObject *)hk->engine)
        return 0;
    int is_started = truth(started), is_completed = truth(completed);
    int is_established = starting ? 1 : truth(established);
    if (is_started < 0 || is_completed < 0 || is_established < 0)
        return -1;
    if (starting ? is_started : (!is_started || !is_established || is_completed))
        return !starting;  /* try_send returns 0; a second start() is Python's */
    if (!sb_load(&b.sb, d, 0) ||
        !dict_ll(d, sn_cwnd, &b.cwnd, 0) || !dict_ll(d, sn_mss, &b.mss, 0) ||
        !dict_ll(d, sn_snd_nxt, &b.snd_nxt, 0))
        return 0;
    if ((size = field_get(spec, s_size_attr)) == NULL)
        return -1;
    int sized = ll_read_fast(size, &b.spec_size);
    Py_DECREF(size);
    if (!sized)
        return 0;
    b.sb.now = hk->engine->now;
    /* Most ACKs open no window: with an empty lost queue that is known
     * already, and nothing would change. */
    if (!starting && Py_SIZE(b.sb.lost_queue) == 0) {
        long long left = b.spec_size - b.snd_nxt;
        if (left <= 0 || b.sb.pipe + (b.mss < left ? b.mss : left) > b.cwnd)
            return 1;
    }
    Py_INCREF(spec);
    int status = burst_prepare(hk, &b, spec, starting);
    Py_DECREF(spec);
    if (status <= 0)
        goto done;
    status = -1;
    if (starting && (PyDict_SetItem(d, sn_started, Py_True) < 0 ||
                     PyDict_SetItem(d, sn_established, Py_True) < 0))
        goto done;
    if (!is_completed) {
        if (burst_peek(&b) < 0)
            goto done;
        while (b.allowed)
            if (burst_transmit(hk, &b) < 0)
                goto done;
        if (sb_flush_pipe(&b.sb) < 0)
            goto done;
    }
    status = 1;
done:
    for (int i = 0; i < BO_COUNT; i++)
        Py_XDECREF(b.own[i]);
    return status;
}

/* A flow's start() event (cengine_dispatch). The host kernel is found
 * from the sender: host.send must be the send method of the kernel of
 * that very host. 1 when handled, 0 for the plain call of start(). */
static int
c_sender_start(PyObject *ep)
{
    PyObject **dictptr = _PyObject_GetDictPtr(ep);
    if (dictptr == NULL || *dictptr == NULL || !PyDict_CheckExact(*dictptr))
        return 0;
    PyObject *host = PyDict_GetItemWithError(*dictptr, s_host_attr);
    PyObject *send = host == NULL ? NULL : PyObject_GetAttr(host, s_send_attr);
    if (send == NULL)
        return host == NULL ? 0 : -1;
    HostKernelObject *hk = NULL;
    if (Py_TYPE(send) == &KernelMethodType && ((KernelMethodObject *)send)->which == KM_HOST_SEND)
        hk = (HostKernelObject *)((KernelMethodObject *)send)->kernel;
    int status = (hk != NULL && hk->host == host) ? c_sender_burst(hk, ep, *dictptr, 1) : 0;
    Py_DECREF(send);  /* held until here: it keeps the kernel alive */
    return status;
}

/* tlt.after_ack(): the stock one returns at once unless the Important
 * state is still armed (one ACK in ten), so only then is it called. */
static int
c_tlt_after_ack(PyObject *tlt)
{
    PyObject *state;
    if (Py_IS_TYPE(tlt, TltWindowSenderCls) && method_is(tlt, sn_after_ack, TltAfterAckFn) &&
        (state = inst_peek(tlt, s_state)) != NULL && state != SendIMPORTANTObj)
        return 0;
    return call_method(tlt, sn_after_ack, NULL, NULL);
}

/* An ACK for a stock byte-stream sender (see the section comment).
 * Returns 1 when handled, 0 to hand the untouched state to the Python
 * on_packet, -1 on error. Past the eligibility block a value of a type
 * the transcription cannot use raises instead: nothing can be handed
 * back once tlt.on_ack has run. */
static int
c_sender_on_packet(HostKernelObject *hk, PyObject *ep, PyObject *packet)
{
    /* Type before instance dict: asking for the dict materializes it,
     * and endpoints of other families keep their inline attributes. */
    if (!(type_stock(Py_TYPE(ep)) & STOCK_CORE))
        return 0;
    PyObject **dictptr = _PyObject_GetDictPtr(ep);
    if (dictptr == NULL || *dictptr == NULL || !PyDict_CheckExact(*dictptr))
        return 0;
    PyObject *d = *dictptr;  /* borrowed; ep is held by the caller */
    for (int i = 0; i < N_CORE; i++)
        if (PyDict_GetItemWithError(d, CoreNames[i]) != NULL)
            return 0;  /* per-instance override or spy */

    PyObject *completed = PyDict_GetItemWithError(d, sn_completed);
    /* held[]: what the transcription keeps using across calls into Python */
    PyObject *held[4] = {PyDict_GetItemWithError(d, sn_tlt), PyDict_GetItemWithError(d, sn_rto),
                         PyDict_GetItemWithError(d, s_config), PyDict_GetItemWithError(d, s_spec)};
    PyObject *tlt = held[0], *rto = held[1], *config = held[2], *spec = held[3];
    PyObject *sack = GETSLOT(packet, K_sack), *ecn_echo = GETSLOT(packet, K_ecn_echo);
    Scoreboard sb;
    long long ack, ts_echo, snd_una, snd_nxt, dupacks, stride, scan_hint, highest;
    /* a completed sender's on_packet returns at once: Python's */
    if (completed != Py_False || tlt == NULL || rto == NULL || config == NULL || spec == NULL ||
        PyDict_GetItemWithError(d, s_engine) != (PyObject *)hk->engine ||
        !sb_load(&sb, d, 0) || !slot_fast(packet, K_ack, &ack) ||
        !slot_fast(packet, K_ts_echo, &ts_echo) || !dict_ll(d, sn_snd_una, &snd_una, 0) ||
        !dict_ll(d, sn_snd_nxt, &snd_nxt, 0) || !dict_ll(d, sn_dupacks, &dupacks, 0) ||
        !dict_ll(d, sn_stride, &stride, 0) || stride <= 0 ||
        !dict_ll(d, sn__scan_hint, &scan_hint, 0) ||
        !dict_ll(d, sn__highest_sacked, &highest, 0) ||
        ecn_echo == NULL || sack == NULL || !PyTuple_CheckExact(sack))
        return 0;
    /* SACK blocks: (lo, hi) pairs of small ints, any number of them. */
    Py_ssize_t nblocks = PyTuple_GET_SIZE(sack);
    long long lo, hi;
    for (Py_ssize_t i = 0; i < nblocks; i++) {
        PyObject *block = PyTuple_GET_ITEM(sack, i);
        if (!PyTuple_CheckExact(block) || PyTuple_GET_SIZE(block) != 2 ||
            !ll_read_fast(PyTuple_GET_ITEM(block, 0), &lo) ||
            !ll_read_fast(PyTuple_GET_ITEM(block, 1), &hi))
            return 0;
    }
    /* The TLT controller's first look must be the stock one: it leaves
     * the sender alone unless it returns None, so what was read above
     * still holds after it. */
    if (tlt != Py_None && !method_is(tlt, sn_on_ack, TltOnAckFn))
        return 0;

    /* -- eligibility established; the packet is ours ----------------------- */

    int status = -1;
    sb.marked = NULL;
    sb.now = hk->engine->now;
    for (int i = 0; i < 4; i++)
        Py_INCREF(held[i]);
    EntryView ev;
    PyObject *entry;

    long long echo_ts = -1;
    if (tlt != Py_None) {
        PyObject *args[2] = {tlt, packet};
        PyObject *r = PyObject_Vectorcall(TltOnAckFn, args, 2, NULL);
        if (r == NULL)
            goto done;
        /* None: an Important Clock Echo suppressed below snd_una.
         * Otherwise packet.ts_echo (read above) or -1. */
        int suppressed = r == Py_None || !ll_read_signed(r, &echo_ts);
        Py_DECREF(r);
        if (suppressed)
            goto handled;
    }

    /* Timestamp-based RTT sample. */
    if (ts_echo > 0) {
        PyObject *add_rtt;
        if (c_rtt_sample(rto, sb.now - ts_echo) < 0)
            goto done;
        if ((add_rtt = PyDict_GetItemWithError(d, sn__add_rtt_sample)) == NULL) {
            PyErr_SetString(PyExc_AttributeError, "compiled ACK path: no _add_rtt_sample");
            goto done;
        }
        if (c_sample_add(add_rtt, sb.now - ts_echo) < 0)
            goto done;
    }

    long long newly_acked = 0;
    if (ack > snd_una) {
        newly_acked = ack - snd_una;
        if (dict_set_ll(d, sn_snd_una, ack) < 0 ||
            (dupacks != 0 && PyDict_SetItem(d, sn_dupacks, LLZero) < 0) ||
            PyDict_SetItem(d, sn__probe_outstanding, Py_False) < 0)
            goto done;
        dupacks = 0;
        /* _ack_to(ack) */
        long long head = sb.head;
        for (; sb.head < sb.n; sb.head++) {
            entry = PyList_GET_ITEM(sb.entries, sb.head);
            if (entry_load(entry, &ev) < 0)
                goto done;
            if (ev.n[EN_END] > ack)
                break;
            if (sb_resolve(&sb, entry, &ev, EF_ACKED) < 0)
                goto done;
        }
        if (sb_flush_pipe(&sb) < 0 ||
            (sb.head != head && dict_set_ll(d, sn__head, sb.head) < 0) ||
            (scan_hint < sb.head && dict_set_ll(d, sn__scan_hint, sb.head) < 0))
            goto done;
        int in_recovery = dict_truth(d, sn_in_recovery);
        long long recover_point;
        if (in_recovery < 0 ||
            (in_recovery && (!dict_ll(d, sn_recover_point, &recover_point, 1) ||
                             (ack >= recover_point &&
                              PyDict_SetItem(d, sn_in_recovery, Py_False) < 0))))
            goto done;
        if (c_restart_rto(hk, ep, d, rto, sb.now) < 0)
            goto done;
    } else if (ack == snd_una && snd_una < snd_nxt) {
        if (dict_set_ll(d, sn_dupacks, ++dupacks) < 0)
            goto done;
    }

    /* _apply_sack(packet.sack) */
    long long sacked_bytes = 0, highest_seen = highest;
    for (Py_ssize_t i = 0; i < nblocks; i++) {
        PyObject *block = PyTuple_GET_ITEM(sack, i);
        ll_read_fast(PyTuple_GET_ITEM(block, 0), &lo);
        ll_read_fast(PyTuple_GET_ITEM(block, 1), &hi);
        if (hi > highest)
            highest = hi;
        Py_ssize_t idx = lo / stride < sb.head ? sb.head : lo / stride;
        for (; idx < sb.n; idx++) {
            entry = PyList_GET_ITEM(sb.entries, idx);
            if (entry_load(entry, &ev) < 0)
                goto done;
            if (ev.n[EN_START] >= hi)
                break;
            if (ev.f[EF_ACKED] || ev.f[EF_SACKED] || ev.n[EN_START] < lo || ev.n[EN_END] > hi)
                continue;
            if (sb_resolve(&sb, entry, &ev, EF_SACKED) < 0)
                goto done;
            sacked_bytes += ev.n[EN_END] - ev.n[EN_START];
        }
    }
    if (sb_flush_pipe(&sb) < 0 ||
        (highest != highest_seen && dict_set_ll(d, sn__highest_sacked, highest) < 0))
        goto done;

    /* mark_lost_sent_before(echo_ts): echo-based loss detection, once
     * the ACK/SACK state is current. */
    if (echo_ts >= 0) {
        for (Py_ssize_t idx = sb.head; idx < sb.n; idx++) {
            entry = PyList_GET_ITEM(sb.entries, idx);
            if (entry_load(entry, &ev) < 0 ||
                (ENTRY_OPEN(ev) && ev.f[EF_IN_PIPE] && ev.n[EN_LAST_TX] <= echo_ts &&
                 sb_mark_lost(&sb, entry, &ev) < 0))
                goto done;
        }
        if (sb_on_loss(&sb, ep) < 0)
            goto done;
    }

    /* cc_on_ack(newly_acked, packet.ecn_echo and config.ecn) */
    int echoed = truth(ecn_echo);
    PyObject *newly = echoed < 0 ? NULL : PyLong_FromLongLong(newly_acked);
    PyObject *ecn = newly == NULL ? NULL : echoed ? field_get(config, s_ecn)
                                                  : Py_NewRef(ecn_echo);
    int rc = ecn == NULL ? -1 : call_method(ep, sn_cc_on_ack, newly, ecn);
    Py_XDECREF(newly);
    Py_XDECREF(ecn);
    if (rc < 0)
        goto done;
    int in_recovery = newly_acked ? dict_truth(d, sn_in_recovery) : 1;
    if (in_recovery < 0)
        goto done;
    if (!in_recovery) {
        /* Reno growth: slow start below ssthresh, else 1 MSS per RTT;
         * capped at max_cwnd. */
        long long cwnd, ssthresh, mss, max_cwnd, ca_acc, grown;
        if (!dict_ll(d, sn_cwnd, &cwnd, 1) || !dict_ll(d, sn_ssthresh, &ssthresh, 1) ||
            !dict_ll(d, sn_mss, &mss, 1) || !dict_ll(d, sn_max_cwnd, &max_cwnd, 1))
            goto done;
        grown = cwnd;
        if (cwnd < ssthresh)
            grown += newly_acked < mss ? newly_acked : mss;
        else {
            if (!dict_ll(d, sn__ca_acc, &ca_acc, 1))
                goto done;
            ca_acc += mss * newly_acked;
            if (ca_acc >= cwnd) {
                ca_acc -= cwnd;
                grown += mss;
            }
            if (dict_set_ll(d, sn__ca_acc, ca_acc) < 0)
                goto done;
        }
        if (grown > max_cwnd)
            grown = max_cwnd;
        if (grown != cwnd && dict_set_ll(d, sn_cwnd, grown) < 0)
            goto done;
    }

    /* Loss detection: dup-ACK threshold (DUPACK_THRESHOLD, 1) or SACK holes. */
    long long size, srtt;
    if (!dict_ll(d, sn_dupacks, &dupacks, 1) ||
        ((dupacks >= 1 || sacked_bytes) &&
         (rto_ll(rto, T_srtt, sn_srtt, &srtt) < 0 ||  /* _srtt() */
          (srtt == 0 && attr_ll(config, sn_base_rtt_ns, &srtt) < 0) ||
          !sb_load(&sb, d, 1) || sb_detect_losses(&sb, ep, srtt, dupacks >= 1) < 0)))
        goto done;

    if (!dict_ll(d, sn_snd_una, &snd_una, 1) || attr_ll(spec, s_size_attr, &size) < 0)
        goto done;
    if (snd_una >= size) {
        if (call_method(ep, sn__complete, NULL, NULL) < 0)
            goto done;
    } else {
        int sent = c_sender_burst(hk, ep, d, 0);
        if (sent < 0 || (sent == 0 && call_method(ep, sn_try_send, NULL, NULL) < 0) ||
            (tlt != Py_None && c_tlt_after_ack(tlt) < 0))
            goto done;
    }
handled:
    status = 1;
done:
    Py_XDECREF(sb.marked);
    for (int i = 0; i < 4; i++)
        Py_DECREF(held[i]);
    return status;
}

static int
c_host_sink(HostKernelObject *hk, PyObject *packet, PyObject *in_port)
{
    (void)in_port;
    PyObject *fid = GETSLOT(packet, K_flow_id);
    if (fid == NULL) {
        PyErr_SetString(PyExc_AttributeError, "packet has no flow_id");
        return -1;
    }
    PyObject *ep = PyDict_GetItemWithError(hk->endpoints, fid);
    if (ep == NULL && PyErr_Occurred())
        return -1;
    if (ep != NULL && ep != Py_None) {
        Py_INCREF(ep);
        /* DATA to the receiver path, ACKs to the sender path, anything
         * else (SYN, SYN-ACK, FIN, the RoCE kinds) to Python. */
        int handled = 0;
        if (Py_TYPE(packet) == (PyTypeObject *)PacketCls) {
            PyObject *kind = GETSLOT(packet, K_kind);
            if (kind == KindDATAObj)
                handled = c_receiver_on_packet(hk, ep, packet);
            else if (kind == KindACKObj)
                handled = c_sender_on_packet(hk, ep, packet);
        }
        if (handled == 0)
            handled = call_method(ep, s_on_packet, packet, NULL);
        Py_DECREF(ep);
        if (handled < 0)
            return -1;
    }
    return c_recycle(packet);
}

static int
hk_traverse(HostKernelObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->host);
    Py_VISIT((PyObject *)self->engine);
    Py_VISIT(self->nicqueue);
    Py_VISIT(self->endpoints);
    Py_VISIT(self->port);
    Py_VISIT(self->send_m);
    Py_VISIT(self->poll_m);
    Py_VISIT(self->sink_m);
    return 0;
}

static int
hk_clear(HostKernelObject *self)
{
    Py_CLEAR(self->host);
    Py_CLEAR(self->engine);
    Py_CLEAR(self->nicqueue);
    Py_CLEAR(self->endpoints);
    Py_CLEAR(self->port);
    Py_CLEAR(self->send_m);
    Py_CLEAR(self->poll_m);
    Py_CLEAR(self->sink_m);
    return 0;
}

static void
hk_dealloc(HostKernelObject *self)
{
    PyObject_GC_UnTrack(self);
    hk_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
hk_init(HostKernelObject *self, PyObject *args, PyObject *kwargs)
{
    PyObject *host;
    if (!PyArg_ParseTuple(args, "O:HostKernel", &host))
        return -1;
    PyObject *engine = PyObject_GetAttr(host, s_engine);
    if (engine == NULL)
        return -1;
    if (!CEngine_CheckExact(engine)) {
        Py_DECREF(engine);
        PyErr_SetString(PyExc_TypeError,
                        "HostKernel requires a host driven by a CEngine");
        return -1;
    }
    Py_XSETREF(self->engine, (CEngineObject *)engine);
    Py_INCREF(host);
    Py_XSETREF(self->host, host);

    PyObject *nic = PyObject_GetAttr(host, s_nic), *m;
    int bound = nic != NULL && bind_attr(&self->nicqueue, nic, s_queue_attr) == 0 &&
                bind_attr(&self->endpoints, host, s_endpoints) == 0 &&
                bind_attr(&self->port, host, s_port_attr) == 0 &&
                dict_attrs(Py_TYPE(host), s_send_attr, s_receive, s_poll, NULL) == 0;
    Py_XDECREF(nic);
    if (!bound)
        return -1;
    if (!Py_IS_TYPE(self->nicqueue, DequeCls) || !PyDict_CheckExact(self->endpoints) ||
        !PyObject_TypeCheck(self->port, (PyTypeObject *)PortCls)) {
        PyErr_SetString(PyExc_TypeError, "HostKernel requires a deque NIC queue, "
                        "a dict of endpoints and an attached Port");
        return -1;
    }

    if ((m = km_new_internal((PyObject *)self, KM_HOST_SEND,
                             "HostKernel.send")) == NULL)
        return -1;
    Py_XSETREF(self->send_m, m);
    if ((m = km_new_internal((PyObject *)self, KM_HOST_POLL,
                             "HostKernel.poll")) == NULL)
        return -1;
    Py_XSETREF(self->poll_m, m);
    if ((m = km_new_internal((PyObject *)self, KM_HOST_SINK,
                             "HostKernel.sink")) == NULL)
        return -1;
    Py_XSETREF(self->sink_m, m);
    return 0;
}

static PyMemberDef hk_members[] = {
    {"send", T_OBJECT, offsetof(HostKernelObject, send_m), READONLY, NULL},
    {"poll", T_OBJECT, offsetof(HostKernelObject, poll_m), READONLY, NULL},
    {"sink", T_OBJECT, offsetof(HostKernelObject, sink_m), READONLY, NULL},
    {"host", T_OBJECT, offsetof(HostKernelObject, host), READONLY, NULL},
    {NULL},
};

static PyTypeObject HostKernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ckernel.HostKernel",
    .tp_basicsize = sizeof(HostKernelObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled NIC enqueue/dequeue/sink fast path for one Host.",
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)hk_init,
    .tp_dealloc = (destructor)hk_dealloc,
    .tp_traverse = (traverseproc)hk_traverse,
    .tp_clear = (inquiry)hk_clear,
    .tp_members = hk_members,
};

/* ---------------------------------------------------------------------------
 * Module-level functions.
 * ------------------------------------------------------------------------- */

static PyObject *
mod_set_attribution(PyObject *Py_UNUSED(module), PyObject *arg)
{
    PyObject *old = Attribution;
    if (arg == Py_None)
        Attribution = NULL;
    else {
        Py_INCREF(arg);
        Attribution = arg;
    }
    Py_XDECREF(old);
    Py_RETURN_NONE;
}

/* Pool-aware Packet allocator, mirroring repro.net.packet.alloc_packet.
 *
 * The fast path handles the call shape the transports use, positional
 * (flow_id, src, dst, kind, [seq, [payload, [ack]]]). Anything else --
 * keywords, a size, a non-PacketKind kind, an oversized payload -- goes
 * to the original Python function, which also remains the source of
 * truth for error messages. */
static PyObject *
mod_alloc_packet(PyObject *Py_UNUSED(module), PyObject *const *args,
                 Py_ssize_t nargs, PyObject *kwnames)
{
    PyObject *a[7] = {NULL, NULL, NULL, NULL, LLZero, LLZero, LLZero};  /* seq, payload, ack */
    long long payload;
    if (nargs < 4 || nargs > 7 || kwnames != NULL || Py_TYPE(args[3]) != Py_TYPE(KindDATAObj))
        return PyObject_Vectorcall(AllocPacketPy, args, nargs, kwnames);
    for (Py_ssize_t i = 0; i < nargs; i++)
        a[i] = args[i];

    /* The wire size, as Packet.__init__ derives it (enum members are
     * singletons). */
    PyObject *size;
    if (a[3] == KindDATAObj) {
        if (!ll_read_fast(a[5], &payload))
            return PyObject_Vectorcall(AllocPacketPy, args, nargs, kwnames);
        if ((size = PyLong_FromLongLong(payload + HeaderBytesLL)) == NULL)
            return NULL;
    } else
        size = Py_NewRef(a[3] == KindCNPObj ? CnpBytesObj : AckBytesObj);

    Py_ssize_t n = PyList_GET_SIZE(PacketPool);
    PyObject *pkt = n > 0 ? PyList_GET_ITEM(PacketPool, n - 1) : NULL;
    if (pkt != NULL && Py_TYPE(pkt) != (PyTypeObject *)PacketCls) {
        Py_DECREF(size);
        return PyObject_Vectorcall(AllocPacketPy, args, nargs, kwnames);
    }
    if (pkt != NULL) {
        /* Steal the tail reference (list keeps its allocation). */
        Py_SET_SIZE(PacketPool, n - 1);
        slot_store_obj(pkt, K_flow_id, a[0]);
        slot_store_obj(pkt, K_src, a[1]);
        slot_store_obj(pkt, K_dst, a[2]);
        slot_store_obj(pkt, K_kind, a[3]);
        slot_store_obj(pkt, K_seq, a[4]);
        slot_store_obj(pkt, K_payload, a[5]);
        slot_store_obj(pkt, K_size, size);
        slot_store_obj(pkt, K_ack, a[6]);
        slot_store_obj(pkt, K_tclass, LLZero);
        slot_store_obj(pkt, K_sack, EmptyTuple);
        slot_store_obj(pkt, K_ecn_capable, Py_False);
        slot_store_obj(pkt, K_ce, Py_False);
        slot_store_obj(pkt, K_ecn_echo, Py_False);
        slot_store_obj(pkt, K_mark, MarkNONEObj);
        slot_store_obj(pkt, K_color, ColorGREENObj);
        slot_store_obj(pkt, K_is_retx, Py_False);
        slot_store_obj(pkt, K_ts_sent, LLZero);
        slot_store_obj(pkt, K_ts_echo, LLZero);
        slot_store_obj(pkt, K_int_records, Py_None);
        slot_store_obj(pkt, K_int_echo, Py_None);
        slot_store_obj(pkt, K_pooled, Py_False);
    } else {
        /* Pool miss: a fresh Packet, the size passed so that __init__
         * skips deriving it. */
        PyObject *stack[8] = {a[0], a[1], a[2], a[3], a[4], a[5], a[6], size};
        pkt = PyObject_Vectorcall(PacketCls, stack, 8, NULL);
    }
    Py_DECREF(size);
    return pkt;
}

static PyMethodDef module_methods[] = {
    {"set_attribution", mod_set_attribution, METH_O,
     "Install (or clear, with None) the per-callback attribution table."},
    {"alloc_packet", (PyCFunction)(void (*)(void))mod_alloc_packet,
     METH_FASTCALL | METH_KEYWORDS,
     "Pool-aware Packet constructor (compiled fast path)."},
    {NULL},
};

/* ---------------------------------------------------------------------------
 * Import-time resolution of Python-side classes and slot offsets.
 * ------------------------------------------------------------------------- */

static PyObject *
import_attr(const char *mod, const char *name)
{
    PyObject *m = PyImport_ImportModule(mod);
    if (m == NULL)
        return NULL;
    PyObject *o = PyObject_GetAttrString(m, name);
    Py_DECREF(m);
    return o;
}

/* Resolve the byte offset of a __slots__ member on a Python class. */
static int
resolve_slot(PyObject *cls, const char *name, Py_ssize_t *out)
{
    PyObject *descr = PyObject_GetAttrString(cls, name);
    if (descr == NULL)
        return -1;
    if (Py_TYPE(descr) != &PyMemberDescr_Type) {
        PyErr_Format(PyExc_TypeError,
                     "%.100s.%.100s is not a slot member descriptor",
                     ((PyTypeObject *)cls)->tp_name, name);
        Py_DECREF(descr);
        return -1;
    }
    *out = ((PyMemberDescrObject *)descr)->d_member->offset;
    Py_DECREF(descr);
    return 0;
}

static struct PyModuleDef ckernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._ckernel",
    .m_doc = "Compiled hot-path backend: C engine event loop and per-instance "
             "switch/host/port kernels (see repro.sim.backend).",
    .m_size = -1,
    .m_methods = module_methods,
};

#define INTERN(var, s)                                    \
    do {                                                  \
        if (((var) = PyUnicode_InternFromString(s)) == NULL) \
            return NULL;                                  \
    } while (0)

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    /* Python-side collaborators (import before type readying so a
     * broken environment fails the import cleanly). */
    if ((SimulationErrorObj = import_attr("repro.sim.engine", "SimulationError")) == NULL)
        return NULL;
    if ((TimerWheelCls = import_attr("repro.sim.timerwheel", "TimerWheel")) == NULL)
        return NULL;
    if ((StepEcnCls = import_attr("repro.switchsim.ecn", "StepEcn")) == NULL)
        return NULL;
    if ((IntRecordCls = import_attr("repro.net.packet", "IntRecord")) == NULL)
        return NULL;
    PyObject *PacketModule = PyImport_ImportModule("repro.net.packet");
    if (PacketModule == NULL)
        return NULL;
    PacketModuleDict = Py_NewRef(PyModule_GetDict(PacketModule));
    if ((PacketPool = PyObject_GetAttrString(PacketModule, "_POOL")) == NULL)
        return NULL;
    if (!PyList_CheckExact(PacketPool)) {
        PyErr_SetString(PyExc_TypeError, "repro.net.packet._POOL must be a list");
        return NULL;
    }
    if ((PortCls = import_attr("repro.net.link", "Port")) == NULL)
        return NULL;
    if (!PyType_Check(PortCls)) {
        PyErr_SetString(PyExc_TypeError, "repro.net.link.Port must be a class");
        return NULL;
    }
    if ((PortDrainFn = PyObject_GetAttrString(PortCls, "_drain")) == NULL)
        return NULL;
    if ((FibCls = import_attr("repro.net.routing", "Fib")) == NULL ||
        (FibLookupFn = PyObject_GetAttrString(FibCls, "lookup")) == NULL)
        return NULL;

    if ((GcGetThreshold = import_attr("gc", "get_threshold")) == NULL ||
        (GcSetThreshold = import_attr("gc", "set_threshold")) == NULL ||
        (GcEnable = import_attr("gc", "enable")) == NULL ||
        (GcDisable = import_attr("gc", "disable")) == NULL ||
        (GcIsEnabled = import_attr("gc", "isenabled")) == NULL)
        return NULL;
    /* Mirrors repro.sim.engine._GC_RUN_THRESHOLDS. */
    if ((GcRunThresholds = Py_BuildValue("(iii)", 100000, 20, 20)) == NULL)
        return NULL;
    if ((EmptyTuple = PyTuple_New(0)) == NULL)
        return NULL;
    if ((LLZero = PyLong_FromLong(0)) == NULL ||
        (LLOne = PyLong_FromLong(1)) == NULL)
        return NULL;
    Attribution = NULL;

    /* Interned attribute names. */
    INTERN(s_kick, "kick");
    INTERN(s_flush, "flush");
    INTERN(s_add, "add");
    INTERN(s_receive, "receive");
    INTERN(s_receive_pause, "receive_pause");
    INTERN(s_poll, "poll");
    INTERN(s_port_queues, "_port_queues");
    INTERN(s_rr, "_rr");
    INTERN(s_ecn, "ecn");
    INTERN(s_color_threshold_bytes, "color_threshold_bytes");
    INTERN(s_color_classes, "color_classes");
    INTERN(s_int_enabled, "int_enabled");
    INTERN(s_k_bytes, "k_bytes");
    INTERN(s_should_mark, "should_mark");
    INTERN(s_ecn_marks, "ecn_marks");
    INTERN(s_on_packet, "on_packet");
    INTERN(s_add_int_record, "add_int_record");
    INTERN(s_qualname, "__qualname__");
    INTERN(s_live, "live");
    INTERN(s_pool_enabled, "_pool_enabled");
    INTERN(s_fib, "fib");
    INTERN(s_routes, "_routes");
    INTERN(s_lookup, "lookup");
    INTERN(s_buffer, "buffer");
    INTERN(s_stats, "stats");
    INTERN(s_ports, "ports");
    INTERN(s_drop_m, "_drop");
    INTERN(s_config, "config");
    INTERN(s_pfc, "pfc");
    INTERN(s_on_admit, "on_admit");
    INTERN(s_on_release, "on_release");
    INTERN(s_engine, "engine");
    INTERN(s_nic, "nic");
    INTERN(s_queue_attr, "queue");
    INTERN(s_endpoints, "endpoints");
    INTERN(s_port_attr, "port");
    INTERN(s_color_str, "color");
    INTERN(s_pool_str, "pool");
    INTERN(s_dynamic_str, "dynamic");
    INTERN(s_receive_name, "_receive");
    INTERN(s_poll_name, "_poll");
    INTERN(s_tlt_rx, "tlt_rx");
    INTERN(s_done, "done");
    INTERN(s_spec, "spec");
    INTERN(s_state, "state");
    INTERN(s_traffic_class, "traffic_class");
    INTERN(s_plain_color, "plain_color");
    INTERN(s_size_attr, "size");
    INTERN(s_src_attr, "src");
    INTERN(s_dst_attr, "dst");
    INTERN(s_flow_id_attr, "flow_id");
    INTERN(s_host_attr, "host");
    INTERN(s_send_attr, "send");
    INTERN(s_switch_id, "switch_id");
#define X(n) INTERN(sn_##n, #n);
    SENDER_NAMES(X)
#undef X

    /* Slot offsets (resolved, not assumed, so reordering __slots__ in
     * the Python classes can never silently corrupt the fast path). */
    if (resolve_slot(PortCls, "engine", &P_engine) < 0 ||
        resolve_slot(PortCls, "owner", &P_owner) < 0 ||
        resolve_slot(PortCls, "port_no", &P_port_no) < 0 ||
        resolve_slot(PortCls, "peer", &P_peer) < 0 ||
        resolve_slot(PortCls, "rate_bps", &P_rate_bps) < 0 ||
        resolve_slot(PortCls, "delay_ns", &P_delay_ns) < 0 ||
        resolve_slot(PortCls, "busy", &P_busy) < 0 ||
        resolve_slot(PortCls, "paused", &P_paused) < 0 ||
        resolve_slot(PortCls, "down", &P_down) < 0 ||
        resolve_slot(PortCls, "tx_bytes", &P_tx_bytes) < 0 ||
        resolve_slot(PortCls, "tx_packets", &P_tx_packets) < 0 ||
        resolve_slot(PortCls, "_peer_deliver", &P_peer_deliver) < 0 ||
        resolve_slot(PortCls, "wire_seq", &P_wire_seq) < 0 ||
        resolve_slot(PortCls, "_inflight", &P_inflight) < 0 ||
        resolve_slot(PortCls, "_tx_cb", &P_tx_cb) < 0 ||
        resolve_slot(PortCls, "_drain_cb", &P_drain_cb) < 0)
        return NULL;

    PyObject *cls;
    if ((PacketCls = PyObject_GetAttrString(PacketModule, "Packet")) == NULL)
        return NULL;
    cls = PacketCls;
    int bad = (resolve_slot(cls, "flow_id", &K_flow_id) < 0 ||
               resolve_slot(cls, "src", &K_src) < 0 ||
               resolve_slot(cls, "dst", &K_dst) < 0 ||
               resolve_slot(cls, "kind", &K_kind) < 0 ||
               resolve_slot(cls, "seq", &K_seq) < 0 ||
               resolve_slot(cls, "payload", &K_payload) < 0 ||
               resolve_slot(cls, "size", &K_size) < 0 ||
               resolve_slot(cls, "ack", &K_ack) < 0 ||
               resolve_slot(cls, "sack", &K_sack) < 0 ||
               resolve_slot(cls, "tclass", &K_tclass) < 0 ||
               resolve_slot(cls, "ecn_capable", &K_ecn_capable) < 0 ||
               resolve_slot(cls, "ce", &K_ce) < 0 ||
               resolve_slot(cls, "ecn_echo", &K_ecn_echo) < 0 ||
               resolve_slot(cls, "mark", &K_mark) < 0 ||
               resolve_slot(cls, "color", &K_color) < 0 ||
               resolve_slot(cls, "is_retx", &K_is_retx) < 0 ||
               resolve_slot(cls, "ts_sent", &K_ts_sent) < 0 ||
               resolve_slot(cls, "ts_echo", &K_ts_echo) < 0 ||
               resolve_slot(cls, "int_records", &K_int_records) < 0 ||
               resolve_slot(cls, "int_echo", &K_int_echo) < 0 ||
               resolve_slot(cls, "_pooled", &K_pooled) < 0);
    if (bad)
        return NULL;

    /* Collaborators for the compiled alloc_packet fast path. */
    if ((AllocPacketPy = PyObject_GetAttrString(PacketModule, "alloc_packet")) == NULL)
        return NULL;
    if ((cls = PyObject_GetAttrString(PacketModule, "PacketKind")) == NULL)
        return NULL;
    KindDATAObj = PyObject_GetAttrString(cls, "DATA");
    KindCNPObj = PyObject_GetAttrString(cls, "CNP");
    Py_DECREF(cls);
    if (KindDATAObj == NULL || KindCNPObj == NULL)
        return NULL;
    if ((cls = PyObject_GetAttrString(PacketModule, "TltMark")) == NULL)
        return NULL;
    MarkNONEObj = PyObject_GetAttrString(cls, "NONE");
    Py_DECREF(cls);
    if (MarkNONEObj == NULL)
        return NULL;
    if ((cls = PyObject_GetAttrString(PacketModule, "Color")) == NULL)
        return NULL;
    ColorGREENObj = PyObject_GetAttrString(cls, "GREEN");
    Py_DECREF(cls);
    if (ColorGREENObj == NULL)
        return NULL;
    if ((AckBytesObj = PyObject_GetAttrString(PacketModule, "ACK_BYTES")) == NULL ||
        (CnpBytesObj = PyObject_GetAttrString(PacketModule, "CNP_BYTES")) == NULL)
        return NULL;
    {
        PyObject *hb = PyObject_GetAttrString(PacketModule, "HEADER_BYTES");
        if (hb == NULL)
            return NULL;
        HeaderBytesLL = PyLong_AsLongLong(hb);
        Py_DECREF(hb);
        if (HeaderBytesLL == -1 && PyErr_Occurred())
            return NULL;
    }

    /* Collaborators for the receiver fast path. */
    if ((cls = PyObject_GetAttrString(PacketModule, "PacketKind")) == NULL)
        return NULL;
    KindACKObj = PyObject_GetAttrString(cls, "ACK");
    Py_DECREF(cls);
    if (KindACKObj == NULL)
        return NULL;
    if ((cls = PyObject_GetAttrString(PacketModule, "TltMark")) == NULL)
        return NULL;
    MarkIMPDATAObj = PyObject_GetAttrString(cls, "IMPORTANT_DATA");
    MarkIMPCLOCKDATAObj = PyObject_GetAttrString(cls, "IMPORTANT_CLOCK_DATA");
    MarkIMPECHOObj = PyObject_GetAttrString(cls, "IMPORTANT_ECHO");
    MarkIMPCLOCKECHOObj = PyObject_GetAttrString(cls, "IMPORTANT_CLOCK_ECHO");
    MarkCONTROLObj = PyObject_GetAttrString(cls, "CONTROL");
    Py_DECREF(cls);
    if (MarkIMPDATAObj == NULL || MarkIMPCLOCKDATAObj == NULL ||
        MarkIMPECHOObj == NULL || MarkIMPCLOCKECHOObj == NULL ||
        MarkCONTROLObj == NULL)
        return NULL;
    if ((cls = import_attr("repro.transport.base", "ByteStreamReceiver")) == NULL)
        return NULL;
    BSReceiverOnPacket = PyObject_GetAttr(cls, s_on_packet);
    ReceiverRecordProp = PyObject_GetAttrString(cls, "record");
    Py_DECREF(cls);
    if (BSReceiverOnPacket == NULL || ReceiverRecordProp == NULL)
        return NULL;
    if ((TltWindowReceiverCls = import_attr("repro.core.window", "TltWindowReceiver")) == NULL)
        return NULL;
    if ((cls = import_attr("repro.core.window", "_RecvState")) == NULL)
        return NULL;
    RecvIDLEObj = PyObject_GetAttrString(cls, "IDLE");
    RecvIMPORTANTObj = PyObject_GetAttrString(cls, "IMPORTANT");
    RecvIMPCLOCKObj = PyObject_GetAttrString(cls, "IMPORTANT_CLOCK");
    Py_DECREF(cls);
    if (RecvIDLEObj == NULL || RecvIMPORTANTObj == NULL || RecvIMPCLOCKObj == NULL)
        return NULL;
    if ((ReceiverBufferCls = import_attr("repro.transport.sack", "ReceiverBuffer")) == NULL)
        return NULL;
    if (resolve_slot(ReceiverBufferCls, "rcv_nxt", &R_rcv_nxt) < 0 ||
        resolve_slot(ReceiverBufferCls, "intervals", &R_intervals) < 0 ||
        resolve_slot(ReceiverBufferCls, "last_seq", &R_last_seq) < 0)
        return NULL;

    /* Collaborators for the sender path. */
    if ((cls = import_attr("repro.transport.base", "ByteStreamSender")) == NULL)
        return NULL;
    for (int i = 0; i < N_CORE; i++) {
        INTERN(CoreNames[i], CoreMethodNames[i]);
        if ((CoreFns[i] = PyObject_GetAttr(cls, CoreNames[i])) == NULL)
            return NULL;
    }
    Py_DECREF(cls);
    if ((cls = import_attr("repro.core.window", "TltWindowSender")) == NULL)
        return NULL;
    TltOnAckFn = PyObject_GetAttr(cls, sn_on_ack);
    Py_DECREF(cls);
    if (TltOnAckFn == NULL)
        return NULL;
    if ((cls = import_attr("repro.transport.reliable", "Entry")) == NULL)
        return NULL;
    EntryCls = (PyTypeObject *)cls;
    for (int i = 0; i < EN_COUNT; i++)
        if (resolve_slot(cls, EntryIntNames[i], &EntryIntOff[i]) < 0)
            return NULL;
    for (int i = 0; i < EF_COUNT; i++)
        if (resolve_slot(cls, EntryFlagNames[i], &EntryFlagOff[i]) < 0)
            return NULL;
    if ((cls = import_attr("repro.transport.recovery", "RtoEstimator")) == NULL)
        return NULL;
    RtoEstimatorCls = (PyTypeObject *)cls;
    if ((RtoSampleFn = PyObject_GetAttr(cls, sn_on_rtt_sample)) == NULL ||
        resolve_slot(cls, "rto_min", &T_rto_min) < 0 ||
        resolve_slot(cls, "granularity", &T_granularity) < 0 ||
        resolve_slot(cls, "srtt", &T_srtt) < 0 ||
        resolve_slot(cls, "rttvar", &T_rttvar) < 0 ||
        resolve_slot(cls, "backoff_count", &T_backoff_count) < 0 ||
        resolve_slot(cls, "base_rto", &T_base_rto) < 0 ||
        resolve_slot(cls, "current", &T_current) < 0 ||
        resolve_slot(cls, "_base_max", &T_base_max) < 0)
        return NULL;
    if ((cls = import_attr("repro.stats.collector", "Reservoir")) == NULL)
        return NULL;
    ReservoirCls = (PyTypeObject *)cls;
    if ((ReservoirAddFn = PyObject_GetAttr(cls, s_add)) == NULL ||
        resolve_slot(cls, "capacity", &V_capacity) < 0 ||
        resolve_slot(cls, "seen", &V_seen) < 0 ||
        resolve_slot(cls, "_samples", &V_samples) < 0)
        return NULL;

    /* Collaborators for the send path. */
    if ((cls = import_attr("repro.transport.base", "ByteStreamSender")) == NULL)
        return NULL;
    for (int i = 0; i < N_BURST; i++) {
        INTERN(BurstNames[i], BurstMethodNames[i]);
        if ((BurstFns[i] = PyObject_GetAttr(cls, BurstNames[i])) == NULL)
            return NULL;
    }
    Py_DECREF(cls);
    if ((cls = import_attr("repro.core.window", "TltWindowSender")) == NULL)
        return NULL;
    TltWindowSenderCls = (PyTypeObject *)cls;
    if ((TltMarkDataFn = PyObject_GetAttr(cls, sn_mark_data)) == NULL ||
        (TltAfterAckFn = PyObject_GetAttr(cls, sn_after_ack)) == NULL)
        return NULL;
    if ((cls = import_attr("repro.core.window", "_SendState")) == NULL)
        return NULL;
    SendIMPORTANTObj = PyObject_GetAttrString(cls, "IMPORTANT");
    SendIDLEObj = PyObject_GetAttrString(cls, "IDLE");
    Py_DECREF(cls);
    INTERN(s_init, "__init__");
    INTERN(s_alloc_packet, "alloc_packet");
    if (SendIMPORTANTObj == NULL || SendIDLEObj == NULL ||
        (ColorREDObj = import_attr("repro.net.packet", "Color")) == NULL ||
        (EntryInitFn = PyObject_GetAttr((PyObject *)EntryCls, s_init)) == NULL ||
        (DequeCls = (PyTypeObject *)import_attr("collections", "deque")) == NULL ||
        (NetStatsCls = (PyTypeObject *)import_attr("repro.stats.collector", "NetStats")) == NULL ||
        (cls = import_attr("repro.stats.collector", "FlowRecord")) == NULL)
        return NULL;
    FlowRecordCls = (PyTypeObject *)cls;
    Py_SETREF(ColorREDObj, PyObject_GetAttrString(ColorREDObj, "RED"));
    if (ColorREDObj == NULL || resolve_slot(cls, "retx_bytes", &F_retx_bytes) < 0 ||
        resolve_slot(cls, "tx_bytes", &F_tx_bytes) < 0 ||
        (cls = PyImport_ImportModule("repro.transport.base")) == NULL)
        return NULL;
    TransportBaseDict = Py_NewRef(PyModule_GetDict(cls));
    Py_DECREF(cls);
    /* Deque methods, and the classes whose instances the kernels read
     * through their dicts (dict_attrs). */
    if ((DequeAppend = PyObject_GetAttrString((PyObject *)DequeCls, "append")) == NULL ||
        (DequePopleft = PyObject_GetAttrString((PyObject *)DequeCls, "popleft")) == NULL ||
        (DequeAppendleft = PyObject_GetAttrString((PyObject *)DequeCls, "appendleft")) == NULL ||
        (FlowSpecCls = (PyTypeObject *)import_attr("repro.transport.base", "FlowSpec")) == NULL ||
        (TransportConfigCls = (PyTypeObject *)import_attr("repro.transport.base",
                                                          "TransportConfig")) == NULL ||
        dict_attrs(FlowSpecCls, s_flow_id_attr, s_src_attr, s_dst_attr, s_size_attr,
                   sn_on_complete_rx, NULL) < 0 ||
        dict_attrs(TransportConfigCls, s_ecn, s_traffic_class, s_plain_color, sn_recovery,
                   sn_base_rtt_ns, sn_handshake, NULL) < 0 ||
        dict_attrs(TltWindowSenderCls, s_state, sn_sender, s_stats, NULL) < 0 ||
        dict_attrs((PyTypeObject *)TltWindowReceiverCls, s_state, NULL) < 0)
        return NULL;

    /* Collaborators for the switch's open-coded drop. */
    static const char *const drop_names[2][3] = {
        {"drops_green", "drops_green_data", "drops_green_ctrl"},
        {"drops_red", "drops_red_data", "drops_red_ctrl"}};
    for (int i = 0; i < 6; i++)
        INTERN(s_drops[i / 3][i % 3], drop_names[i / 3][i % 3]);
    INTERN(s_audit, "audit");
    INTERN(s_count_drop, "count_drop");
    INTERN(s_drop_bytes, "drop_bytes");
    if ((SwitchDropFn = import_attr("repro.switchsim.switch", "Switch")) == NULL ||
        (CountDropFn = PyObject_GetAttr((PyObject *)NetStatsCls, s_count_drop)) == NULL)
        return NULL;
    Py_SETREF(SwitchDropFn, PyObject_GetAttr(SwitchDropFn, s_drop_m));
    if (SwitchDropFn == NULL)
        return NULL;

    if ((cls = import_attr("repro.switchsim.queue", "EgressQueue")) == NULL)
        return NULL;
    bad = (resolve_slot(cls, "items", &Q_items) < 0 ||
           resolve_slot(cls, "occupancy", &Q_occupancy) < 0 ||
           resolve_slot(cls, "red_bytes", &Q_red_bytes) < 0 ||
           resolve_slot(cls, "max_occupancy", &Q_max_occupancy) < 0 ||
           resolve_slot(cls, "max_red_bytes", &Q_max_red_bytes) < 0 ||
           resolve_slot(cls, "dequeued_bytes", &Q_dequeued_bytes) < 0);
    Py_DECREF(cls);
    if (bad)
        return NULL;

    if ((cls = import_attr("repro.switchsim.buffer", "SharedBuffer")) == NULL)
        return NULL;
    bad = (resolve_slot(cls, "capacity", &B_capacity) < 0 ||
           resolve_slot(cls, "alpha", &B_alpha) < 0 ||
           resolve_slot(cls, "used", &B_used) < 0 ||
           resolve_slot(cls, "peak_used", &B_peak_used) < 0);
    Py_DECREF(cls);
    if (bad)
        return NULL;

    /* Types. */
    if (PyType_Ready(&CEventType) < 0 ||
        PyType_Ready(&CEngineType) < 0 ||
        PyType_Ready(&KernelMethodType) < 0 ||
        PyType_Ready(&PortKernelType) < 0 ||
        PyType_Ready(&SwitchKernelType) < 0 ||
        PyType_Ready(&HostKernelType) < 0)
        return NULL;
    /* Mirror Engine.COMPACT_MIN_DEAD (introspected by tests); keep the
     * _push descriptor _pusher hands out. */
    {
        PyObject *v = PyLong_FromLong(COMPACT_MIN_DEAD_C);
        if (v == NULL)
            return NULL;
        if (PyDict_SetItemString(CEngineType.tp_dict, "COMPACT_MIN_DEAD", v) < 0) {
            Py_DECREF(v);
            return NULL;
        }
        Py_DECREF(v);
        PyType_Modified(&CEngineType);
        PushDescr = PyDict_GetItemString(CEngineType.tp_dict, "_push");
    }

    PyObject *module = PyModule_Create(&ckernel_module);
    if (module == NULL)
        return NULL;
    Py_INCREF(&CEngineType);
    if (PyModule_AddObject(module, "CEngine", (PyObject *)&CEngineType) < 0)
        goto error;
    Py_INCREF(&CEventType);
    if (PyModule_AddObject(module, "CEvent", (PyObject *)&CEventType) < 0)
        goto error;
    Py_INCREF(&KernelMethodType);
    if (PyModule_AddObject(module, "KernelMethod", (PyObject *)&KernelMethodType) < 0)
        goto error;
    Py_INCREF(&PortKernelType);
    if (PyModule_AddObject(module, "PortKernel", (PyObject *)&PortKernelType) < 0)
        goto error;
    Py_INCREF(&SwitchKernelType);
    if (PyModule_AddObject(module, "SwitchKernel", (PyObject *)&SwitchKernelType) < 0)
        goto error;
    Py_INCREF(&HostKernelType);
    if (PyModule_AddObject(module, "HostKernel", (PyObject *)&HostKernelType) < 0)
        goto error;
    if (PyModule_AddIntConstant(module, "NEVER", (long)NEVER_LL) < 0 ||
        (AllocPacketC = PyObject_GetAttr(module, s_alloc_packet)) == NULL)
        goto error;
    return module;
error:
    Py_DECREF(module);
    return NULL;
}
