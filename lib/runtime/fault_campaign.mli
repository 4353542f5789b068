(** Crash–recovery fault campaigns.

    Drives a {!Dsm_core.Protocol.S} protocol through a workload over a
    {!Dsm_sim.Reliable_channel} while a {!Dsm_sim.Fault_plan} crashes
    and restarts processes and cuts/heals partitions. The paper's §3.1
    model has neither failure; the campaign shows OptP's causal
    consistency survives both once the protocol state is made durable.

    {2 The recovery model}

    - {b Durable}: whatever {!Dsm_core.Protocol.S.snapshot} captures
      (for OptP: [Apply], [Write_co], [LastWriteOn], the store, the
      pending buffer) plus the write log that feeds anti-entropy
      replies. A commit happens after {e every local write} — so a
      write is durable before its broadcast leaves and no dot is ever
      reissued — and at a periodic checkpoint ([checkpoint_every]),
      which bounds how many {e received} writes a crash can undo.
    - {b Volatile}: everything since the last commit. A crash discards
      the protocol's un-checkpointed progress and the staged execution
      events of that window (the run's record keeps exactly what the
      durable state can vouch for), and
      {!Dsm_sim.Reliable_channel.abort_peer} abandons retransmissions
      toward the corpse.
    - {b Recovery}: the state is rebuilt with [restore], then the node
      broadcasts its [Apply] vector in a [Sync_request]; peers answer
      with the original wire messages of every applied write the
      vector misses (per-issuer FIFO apply makes vector coverage exact:
      dot [(u,s)] is applied iff [Apply[u] >= s]). Replies replay
      through the {e normal} receive path, so the delivery buffer and
      the delay accounting are untouched — every replayed delay is
      {e necessary} by construction, and OptP keeps its Theorem-4 zero
      unnecessary delays across crashes.

    After the engine quiesces, a final anti-entropy fixpoint pass picks
    up writes that were still buffered at every peer during the in-run
    sync rounds, and an optional {e settle phase} (reads + sentinel
    writes round-robin over live replicas, then reads everywhere) makes
    live replicas comparable field-by-field: causal consistency alone
    permits eternal divergence on concurrent writes (experiment Q9),
    and OptP's [Write_co] only grows on reads. *)

type 'msg wire =
  | Proto of 'msg
  | Sync_request of { vec : int array }
      (** "my [Apply] vector is [vec]; send what I miss" *)
  | Sync_reply of { vec : int array; writes : 'msg list }
      (** the peer's own vector and the original messages of the gap *)

val wire_of_env :
  ('msg -> Dsm_obs.Wire.frame) -> 'msg wire -> Dsm_obs.Wire.frame
(** Frame-shape measurer over the campaign envelope: protocol messages
    keep their shape, anti-entropy traffic is priced under a ["sync"]
    cause (request = one vector; reply = its vector plus every carried
    write's shape). *)

type recovery = {
  rproc : int;
  crashed_at : float;
  recovered_at : float;
  rolled_back_events : int;
      (** applies the crash undid (volatile window) *)
  mutable caught_up_at : float option;
      (** first moment [Apply] covered every peer vector seen in sync
          replies; [None] = never (e.g. crashed again first) *)
  mutable replayed : int;  (** writes replayed into this recovery *)
  mutable sync_target : int array option;
}

type replica_state = {
  sproc : int;
  sapplied : int array;  (** final [Apply] *)
  sclock : int array;  (** final [Write_co] (or protocol equivalent) *)
  sstore : (Dsm_memory.Operation.value * Dsm_vclock.Dot.t option) list;
      (** per variable: value and writer identity *)
}

type outcome = {
  execution : Execution.t;
  report : Checker.report;
  protocol_name : string;
  plan : Dsm_sim.Fault_plan.t;
  recoveries : recovery list;
  down_at_end : int list;
  final_states : replica_state list;  (** live replicas, ascending id *)
  live_equal : bool;
      (** all live replicas agree on store and [Apply] (and on the
          local clock too when the settle phase ran) *)
  clean : bool;
      (** no checker violations, and every lost write is at a process
          that is still down — i.e. the global history of what actually
          executed is causally consistent *)
  commits : int;
  snapshot_bytes : int;  (** cumulative serialized-state volume *)
  rolled_back_events : int;
  ops_skipped_down : int;  (** workload ops that hit a crashed process *)
  sync_requests : int;
  sync_replies : int;
  replayed_writes : int;
  stale_deliveries_dropped : int;
      (** duplicate protocol deliveries filtered after dedup-state loss *)
  aborted_payloads : int;
  payloads_sent : int;
  frames_sent : int;
  frames_dropped : int;
  frames_partition_dropped : int;
  frames_crash_dropped : int;
  retransmissions : int;
  duplicates_discarded : int;
  engine_steps : int;
  end_time : float;
}

val validate_plan : n:int -> Dsm_sim.Fault_plan.t -> unit
(** The acceptance check {!run} applies to its plan: well-formed for a
    universe of [n] ({!Dsm_sim.Fault_plan.validate}) and {e static} —
    this harness never changes the replica set, so a plan with
    [Join]/[Leave] events is refused with a message pointing at the
    drivers that own membership: {!Nemesis} for combined fault
    schedules, {!Churn_campaign} (and the CLI's churn/detector flags)
    for churn alone. Link-level fault events ([Cut_oneway], [Flap],
    [Inflate]) are static-membership faults and are accepted.
    @raise Invalid_argument otherwise. *)

val run :
  (module Dsm_core.Protocol.S with type t = 'pt and type msg = 'pm) ->
  spec:Dsm_workload.Spec.t ->
  latency:Dsm_sim.Latency.t ->
  ?faults:Dsm_sim.Network.faults ->
  plan:Dsm_sim.Fault_plan.t ->
  ?checkpoint_every:float ->
  ?sync_rounds:int ->
  ?sync_interval:float ->
  ?settle:bool ->
  ?retransmit_after:float ->
  ?seed:int ->
  ?max_steps:int ->
  ?metrics:Dsm_obs.Metrics.t ->
  ?wire:Dsm_obs.Wire.t ->
  ?recorder:Dsm_obs.Timeseries.t ->
  ?scrape_every:float ->
  ?queue:Dsm_sim.Engine.queue_impl ->
  ?arena:bool ->
  ?batch:bool ->
  unit ->
  outcome
(** Requires a complete broadcast protocol (every write reaches every
    process as its own wire message — OptP, ANBKH, OptP-direct): the
    anti-entropy reply re-supplies original messages by dot, which a
    writing-semantics or token-batching protocol cannot always do; the
    run fails with [Invalid_argument] if the log cannot serve a gap.
    Defaults: [checkpoint_every = 50.], [sync_rounds = 2] spaced
    [sync_interval = 100.] apart, [settle = true],
    [retransmit_after = 50.], [seed = 1].

    [?metrics] (default: the null registry) is threaded to the network
    and reliable channel and additionally receives
    [campaign_checkpoints], [campaign_checkpoint_bytes],
    [campaign_rollback_depth] (events lost per recovery),
    [campaign_replayed_writes], [campaign_sync_requests] and
    [campaign_sync_replies]; probes are pure observation, the campaign
    is byte-identical with and without them.
    [?wire]/[?recorder]/[?scrape_every] as in {!Sim_run.run}: the
    accountant prices channel frames over the campaign envelope
    ({!wire_of_env}), so anti-entropy traffic shows up under a "sync"
    cause; the recorder runs to the later of the workload horizon and
    the last plan event.
    @raise Invalid_argument on an invalid plan or non-positive
    [checkpoint_every]. *)

val recovery_latency : recovery -> float option
(** [caught_up_at - recovered_at]. *)

val pp_recovery : Format.formatter -> recovery -> unit
val pp_outcome : Format.formatter -> outcome -> unit
