(** Ground-truth [Write_co] timestamps, computed from the history alone.

    {!Causal_order} computes [↦co] exactly but needs O(ops²) space.
    This module exploits the paper's own result — [Write_co]
    characterizes [↦co] (Theorems 1–2) — to provide an O(ops·n)
    alternative: it {e re-derives} the vector of every write (and the
    causal-past vector of every read) directly from the history's
    process order and read-from edges, with no protocol involved. The
    checker uses it to audit arbitrarily large runs; the test-suite
    cross-validates it against the dense {!Causal_order} on small
    histories.

    Component [j] of a write's vector is the sequence number of the
    last write of [p_j] in its causal past (including itself for the
    issuer component) — so, by Corollary 1,
    [w' ↦co w  ⟺  seq w' ≤ (vector w).(replica w')] for [w' ≠ w].

    Vectors are stored densely, per issuer by write index and per
    process by read slot, so every lookup below is O(1). *)

type t

val compute : ?floor:Dsm_vclock.Vector_clock.t -> History.t -> t
(** @raise Invalid_argument if the history fails {!History.validate}
    or its read-from edges are cyclic. *)

val history : t -> History.t

val of_write : t -> Dsm_vclock.Dot.t -> Dsm_vclock.Vector_clock.t
(** @raise Not_found for a dot that is not a write of the history. *)

val of_read : t -> proc:int -> slot:int -> Dsm_vclock.Vector_clock.t
(** Causal-past vector of a read: component [j] counts the writes of
    [p_j] that causally precede the read.
    @raise Not_found for an absent read. *)

val shared_of_write : t -> Dsm_vclock.Dot.t -> Dsm_vclock.Vector_clock.t
(** {!of_write} without the copy: the stored vector itself, which the
    caller must not mutate. Allocates nothing.
    @raise Not_found for a dot that is not a write of the history. *)

val shared_of_read :
  t -> proc:int -> slot:int -> Dsm_vclock.Vector_clock.t
(** {!of_read} without the copy; the same contract as
    {!shared_of_write}. @raise Not_found for an absent read. *)

val write_precedes : t -> Dsm_vclock.Dot.t -> Dsm_vclock.Dot.t -> bool
(** [w ↦co w'] via Corollary 1. O(1).
    @raise Not_found if either write is absent. *)

val write_concurrent : t -> Dsm_vclock.Dot.t -> Dsm_vclock.Dot.t -> bool

val write_precedes_read :
  t -> Dsm_vclock.Dot.t -> proc:int -> slot:int -> bool
(** [w ↦co r]. *)
