(** Recorded protocol runs.

    An execution is the sequence [E_i] of events at each process,
    §3.2's vocabulary: [send], [receipt], [apply], [return] — plus
    [skip] for writing-semantics protocols. Drivers record events as
    the simulation progresses; the {!Checker} and the experiment
    reports read them afterwards.

    Event order within a process is the paper's [<_i]; it is the
    recording order, which the engine guarantees is timestamp-ordered.

    {b Cost.} The log is stored as columns, one set per process, in
    chunks of 512 events: an event keeps five words (its code with its
    global sequence number, an unboxed time, its dot as a {!Key}, and
    two ints) where a record per event kept about sixteen. Recording
    stores ints and floats into those columns and allocates nothing.
    Only a process's first 32 events start in the minor heap; every
    full chunk is allocated in the major heap directly, so the minor
    collector has no log to copy. The checker, the
    counters, the position and time queries and {!apply_latencies}
    read the columns in place through a {!Cursor}; {!events},
    {!events_of} and {!iteri_of} rebuild records for callers that want
    them. *)

type kind =
  | Send of { dot : Dsm_vclock.Dot.t; var : int; value : int }
      (** start of propagation of a write (once per write; a token
          batch yields one [Send] per item at flush time) *)
  | Receipt of { dot : Dsm_vclock.Dot.t; src : int }
  | Blocked of { dot : Dsm_vclock.Dot.t; waiting_for : Dsm_vclock.Dot.t }
      (** the write entered the delivery buffer; [waiting_for] is the
          wakeup constraint — the causal predecessor whose apply the
          protocol is waiting on (delay provenance, Definition 3) *)
  | Apply of {
      dot : Dsm_vclock.Dot.t;
      var : int;
      value : int;
      delayed : bool;  (** applied from the buffer — suffered a delay *)
    }
  | Skip of { dot : Dsm_vclock.Dot.t }
      (** the write was logically overwritten here, never applied *)
  | Return of {
      var : int;
      value : Dsm_memory.Operation.value;
      read_from : Dsm_vclock.Dot.t option;
    }

type event = { proc : int; time : Dsm_sim.Sim_time.t; kind : kind }

type t

val create : ?capacity_limit:int -> n:int -> m:int -> unit -> t
(** [capacity_limit] makes the log a ring: each process keeps its last
    [capacity_limit] events, and the global order keeps the last
    [capacity_limit] of all (live monitoring of long campaigns). Leave it
    unset for checkable runs — the checker and span reconstruction need
    the full log.
    @raise Invalid_argument if [capacity_limit <= 0]. *)

val n_processes : t -> int
val n_variables : t -> int

val dropped_events : t -> int
(** Events evicted from the global order by the ring (0 unbounded). *)

val record : t -> proc:int -> time:Dsm_sim.Sim_time.t -> kind -> unit
(** Stores through the per-kind entry points below.
    @raise Invalid_argument on bad process id, or on a dot that does not
    fit a {!Key}. *)

(** {2 Per-kind recording}

    The same store as {!record}, without building a [kind] block. *)

val record_send :
  t -> proc:int -> time:Dsm_sim.Sim_time.t -> Dsm_vclock.Dot.t -> var:int ->
  value:int -> unit

val record_receipt :
  t -> proc:int -> time:Dsm_sim.Sim_time.t -> Dsm_vclock.Dot.t -> src:int ->
  unit

val record_blocked :
  t -> proc:int -> time:Dsm_sim.Sim_time.t -> Dsm_vclock.Dot.t ->
  waiting_for:Dsm_vclock.Dot.t -> unit

val record_apply :
  t -> proc:int -> time:Dsm_sim.Sim_time.t -> Dsm_vclock.Dot.t -> var:int ->
  value:int -> delayed:bool -> unit

val record_skip :
  t -> proc:int -> time:Dsm_sim.Sim_time.t -> Dsm_vclock.Dot.t -> unit

val record_return :
  t -> proc:int -> time:Dsm_sim.Sim_time.t -> var:int ->
  value:Dsm_memory.Operation.value -> read_from:Dsm_vclock.Dot.t option ->
  unit

(** {1 Reading in place} *)

(** A dot packed into one non-negative int: 16 bits of replica, 14 of
    generation, 32 of sequence number. Keys are equal iff their dots
    are. *)
module Key : sig
  val of_dot : Dsm_vclock.Dot.t -> int
  (** @raise Invalid_argument if a component does not fit. *)

  val to_dot : int -> Dsm_vclock.Dot.t
  val replica : int -> int
  val gen : int -> int
  val seq : int -> int

  val none : int
  (** [-1]: no dot (a [Return] of ⊥ with no [read_from]). *)
end

(** A cursor walks a process's events, or the global order, reading the
    columns where they lie: [next] and the accessors allocate nothing.
    The accessors read the current event — valid after [next] returned
    [true] — and a cursor sees the events recorded before it was made;
    record nothing while one is in use. *)
module Cursor : sig
  type log := t
  type t

  type tag = Send | Receipt | Blocked | Apply | Skip | Return

  val of_process : log -> int -> t
  (** The sequence [E_i], oldest retained first.
      @raise Invalid_argument on bad process id. *)

  val global : log -> t
  (** Every retained event in global recording order (what {!events}
      lists). Making it allocates one int per event. *)

  val next : t -> bool
  (** Moves to the next event; [false] once past the last. *)

  val proc : t -> int
  val pos : t -> int
  (** Index of the event in [events_of (proc c)]. *)

  val tag : t -> tag
  val delayed : t -> bool
  (** An [Apply] from the buffer. *)

  val time : t -> float
  val key : t -> int
  (** The event's dot; a [Return]'s [read_from], or {!Key.none}. *)

  val var : t -> int
  (** [Send], [Apply] and [Return]. *)

  val value : t -> int
  (** [Send] and [Apply]. *)

  val waiting_for : t -> int
  (** A [Blocked]'s [waiting_for], as a key. *)
end

(** {1 Records}

    Rebuilt from the columns on each call, for callers that want them
    (tests, pretty-printers, explanations). *)

val events : t -> event list
(** Global recording order (timestamp order). *)

val events_of : t -> int -> event list
(** The sequence [E_i] of one process. *)

val iteri_of : t -> int -> (int -> event -> unit) -> unit
(** [iteri_of t i f] applies [f pos e] to each event of [E_i] in order,
    [pos] being its index in [events_of t i], without building the list.
    @raise Invalid_argument on bad process id. *)

val event_count : t -> int

(** {1 Queries used by the checker and reports} *)

val apply_order : t -> int -> Dsm_vclock.Dot.t list
(** Dots applied at a process, in apply order. *)

val apply_position : t -> proc:int -> dot:Dsm_vclock.Dot.t -> int option
(** Index (within [events_of proc]) of the first apply of [dot]. *)

val receipt_position : t -> proc:int -> dot:Dsm_vclock.Dot.t -> int option
val skip_position : t -> proc:int -> dot:Dsm_vclock.Dot.t -> int option

val apply_time : t -> proc:int -> dot:Dsm_vclock.Dot.t -> Dsm_sim.Sim_time.t option
val receipt_time : t -> proc:int -> dot:Dsm_vclock.Dot.t -> Dsm_sim.Sim_time.t option

val delayed_applies : t -> (int * Dsm_vclock.Dot.t) list
(** All [(proc, dot)] whose apply was delayed. *)

val delay_count : t -> int
val delay_count_at : t -> int -> int

val blocked_events :
  t -> (int * Dsm_vclock.Dot.t * Dsm_vclock.Dot.t * Dsm_sim.Sim_time.t) list
(** All [(proc, dot, waiting_for, time)] buffering records, in global
    recording order — the raw material of delay provenance. *)

val blocked_count : t -> int
val skip_count : t -> int
val apply_count : t -> int

val writes : t -> (Dsm_vclock.Dot.t * int * int) list
(** All writes issued in the run, as [(dot, var, value)], from the local
    applies at their issuers; deterministic order (issuer, then seq). *)

val to_history :
  ?floor:Dsm_vclock.Vector_clock.t -> t -> Dsm_memory.History.t
(** Reconstructs the abstract history [Ĥ]: per process, its writes (the
    applies at the issuer) and reads (the returns) in process order.
    @raise Invalid_argument if a process's own-write applies are not in
    dot-sequence order (would indicate a broken driver). *)

val pp_event : Format.formatter -> event -> unit
val pp_process : t -> int -> Format.formatter -> unit -> unit
(** One process's event sequence in the style of the paper's Figures
    1–2: [receipt_3(w2(x2)b) <3 apply_3(...) <3 ...]. *)

val apply_latencies : t -> float list
(** Receipt→apply latency of every remote apply that has a matching
    receipt, in time units; immediate applies contribute 0. Single pass. *)
