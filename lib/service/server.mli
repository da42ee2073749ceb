(** The sharded, batched approximate-object server.

    Topology: [io_domains] event-loop domains serve every request (the
    gossip sender and the snapshot writer, when enabled, run beside
    them) — a request runs to completion on the loop that read it.
    Loop 0
    accepts connections and deals them round-robin across the loops;
    from then on a connection belongs to exactly one loop, which owns
    its socket, input buffer and output buffer. Each loop runs a
    slot-indexed {!Poller} (O(1) interest flips, O(ready) dispatch),
    drains each readable socket with a single [read] that may carry
    many frames (the read batch) and decodes them. Object ops are
    staged per shard; at the end of the read phase (or as soon as a
    stage reaches [max_batch]) the loop takes that shard's lock and
    executes the stage as one fused batch against the multicore
    algorithm instances with [pid = shard], encoding each reply
    straight into its connection's output buffer. The cycle ends with
    one coalesced [write] per connection that got replies. No request
    crosses a domain: the wake pipe carries only accept handoffs and
    stop.

    A shard is a lock, not a thread. Algorithms 1 and 2 are wait-free
    for [n] processes, so the service only has to give each
    concurrent caller its own pid: whoever holds shard [s]'s lock is
    process [s] ([n = shards]), and every object hashed to [s] keeps
    one serial execution history — the basis of the exact accuracy
    self-check recorded in {!Metrics}. Loops contend only when they
    execute batches for the same shard in the same instant.

    Backpressure is explicit and bounded everywhere: a connection may
    have at most [max_pending] object ops staged and unanswered; a
    request beyond that is answered immediately with BUSY and nothing
    is buffered. Every staged op is answered within the cycle that
    staged it, and a stage runs as soon as it holds [max_batch] tasks,
    so a connection never has more than [shards * (max_batch - 1) + 1]
    ops pending: [max_pending] only bites when it is set below
    [shards * max_batch] (it does not at the defaults, 256 against
    2 * 64). What bounds memory at the defaults is [max_batch] plus
    the output watermark. A connection whose un-flushed output exceeds a
    watermark stops being read until the client drains it. A frame
    whose header exceeds the protocol cap closes the connection before
    the payload is read.

    STATS and PING are answered on the owning I/O loop as soon as they
    are parsed (they touch no object).

    A dead client costs nothing: when a socket errors or EOFs
    (including mid-frame), the connection is marked dead and closed by
    its owning loop; ops it had already staged still execute, and
    their replies are dropped.

    {b Cluster mode} ([nodes > 1]): every participant derives the same
    consistent-hash ring from [(nodes, replicas)], and this node
    builds only the object slice placed on [node_id]. The first frame
    on every connection must be a HELLO carrying the protocol version
    and a role; peer-role connections unlock GOSSIP frames (staged and
    merged under the shard lock like any client op, preserving the
    single-writer discipline) and the large peer frame cap. A gossip
    sender domain pushes dirty deltas to [peers] every
    [gossip_interval_ms] — or eagerly, when a batch observes an
    object's own contribution growing past [k_staleness] times the
    last export, which bounds the cluster-wide factor of any replica's
    read at [k_local * k_staleness].

    The peer role is {e authorised by network position, not by
    credential}: any connection that completes a peer-role HELLO on a
    clustered node may send GOSSIP, and counter merges are monotone
    and irreversible. Peer listen addresses must therefore only be
    reachable over a trusted network (loopback, a private segment, or
    an authenticated tunnel). Standalone servers ([nodes = 1]) reject
    peer-role HELLOs outright, as they reject a repeated HELLO or an
    unknown role byte on any node.

    The compact gossip data path (GOSSIP2/DIGEST, protocol 3)
    inherits the same trust model unchanged: entries are unsigned,
    the per-connection oid dictionary is taught by whoever sends the
    named first mention, and a digest ack steers what the sender
    re-ships. None of that is hardened against a hostile peer —
    digest anti-entropy narrows {e bandwidth}, not the attack
    surface, so the trusted-network requirement carries over
    verbatim. *)

type listen =
  [ `Unix of string  (** Unix-domain socket path (stale path unlinked). *)
  | `Tcp of string * int  (** Host and port; port 0 picks a free one. *) ]

type config = {
  shards : int;
      (** Shard locks (>= 1): objects hash to a shard, and [n] of the
          approximate objects' process count. *)
  io_domains : int;  (** Event-loop domains (>= 1). *)
  max_batch : int;
      (** Max tasks one locked batch executes; a loop's stage for a
          shard runs early once it holds this many. *)
  max_pending : int;
      (** Per-connection bound on staged, unanswered object ops; beyond
          it a request gets BUSY. Inert unless below
          [shards * max_batch] (see the backpressure paragraph). *)
  max_conns : int;  (** Accepted connections beyond this are closed. *)
  poller : Poller.choice;
      (** Readiness backend for every event loop ([Auto] = epoll when
          compiled in, select otherwise). *)
  specs : Objects.spec list;
      (** Objects the {e cluster} hosts (fixed at start); this node
          builds the placement-owned subset. *)
  node_id : int;  (** This node's id in [0 .. nodes-1]. *)
  nodes : int;  (** Cluster size; 1 = standalone (no handshake change
                    for peers, no gossip domain). *)
  replicas : int;  (** Copies of each object (clamped to [nodes]). *)
  gossip_interval_ms : int;  (** Periodic gossip cadence ([nodes > 1]). *)
  k_staleness : int;
      (** Staleness budget: own growth past this factor since the last
          export wakes the gossip sender eagerly; the cluster-wide
          accuracy bound is [k * k_staleness]. *)
  digest_interval_ticks : int;
      (** Anti-entropy cadence: the gossip sender ships a DIGEST sweep
          (per-object fingerprints) every this many ticks, plus one on
          every peer (re)connect. Replaces the old hardwired
          full-state sync every 16 ticks; in [`Legacy] wire mode it is
          the full-sync period instead. *)
  gossip_wire : [ `Compact | `Legacy ];
      (** Peer wire encoding: [`Compact] (default) is the varint
          GOSSIP2/DIGEST data path — diffed slots, unacked pushes,
          digest anti-entropy, coalesced writes; [`Legacy] reproduces
          the protocol-2 fixed-width acked GOSSIP path for bandwidth
          A/B runs. Both speak wire protocol 3 on the socket; the
          receiver always accepts all three peer ops. *)
  peers : (int * listen) list;
      (** Peer node ids (not [node_id]) and their listen addresses;
          the gossip domain starts only if non-empty and [nodes > 1]. *)
  data_dir : string option;
      (** Durability plane root: [None] disables persistence entirely;
          [Some dir] replays [dir]'s snapshot + delta log at start
          (tolerating a torn tail) and logs/snapshots into it while
          serving. *)
  fsync : Persist.Wal.fsync_policy;
      (** When WAL batches are forced to stable storage. [Never] still
          survives [kill -9] (page cache); fsync narrows the power-loss
          window. *)
  snapshot_interval_ms : int;
      (** Fuzzy-snapshot cadence; [0] disables periodic snapshots (the
          shutdown snapshot still runs). *)
  wal_every_op : bool;
      (** Log every value change instead of envelope-aware batching —
          the bench ablation's contrast cell, not a serving mode. *)
}

val default_config : config
(** 2 shards, 1 io domain, 64-task batches, 256
    in-flight requests per connection, 1024 connections, [Auto]
    poller, [Objects.default_specs ~counters:4 ~k:4]; standalone
    topology (node 0 of 1, no peers, 50 ms interval, k_staleness 2,
    digests every 32 ticks, compact wire); durability off
    ([data_dir = None]; fsync [Never], 1 s snapshots, envelope-batched
    logging when enabled). *)

type t

val start : ?config:config -> listen:listen -> unit -> t
(** Bind, build the object table, spawn the I/O domains and return
    immediately; the returned handle is ready to serve. Raises
    the soft [RLIMIT_NOFILE] toward the hard limit and sizes the
    listen backlog with [max_conns] (clamped to 4096).
    @raise Invalid_argument on a nonsensical config;
    @raise Poller.Unavailable on [poller = Epoll] when the backend is
    compiled out;
    @raise Unix.Unix_error if the socket cannot be bound. *)

val sockaddr : t -> Unix.sockaddr
(** The bound address — with [`Tcp (_, 0)], the actual port. *)

val metrics : t -> Metrics.t
val table : t -> Objects.table
val config : t -> config

val placement : t -> Placement.t
(** The ring derived from [(nodes, replicas)] — identical on every
    participant. *)

val live_connections : t -> int
(** Currently accepted-and-not-closed connections (racy snapshot of
    the atomic counter that enforces [max_conns]). *)

val poller_name : t -> string
(** The backend the event loops actually run on (["epoll"] or
    ["select"]) — the [Auto] resolution. *)

val stop : t -> unit
(** Close the listener and every connection, join all domains and
    unlink a Unix socket path. With a [data_dir],
    additionally write a final snapshot, truncate the log and close
    the WAL with an fsync (best-effort, bounded by the ~50 ms snapshot
    wakeup slice) so a clean shutdown restarts replay-free; [kill -9]
    instead relies on startup replay. Idempotent; blocks until the
    domains have exited. *)
