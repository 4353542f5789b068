(** Run a protocol under a fully scripted schedule.

    The paper's figures prescribe the {e exact} order in which messages
    reach each process (e.g. in Figure 3, [p₃] receives [w₂(x₂)b]
    before [w₁(x₁)a]). This driver gives that control: operations are
    issued at explicit times, and each write-message's transit time to
    each destination is chosen by a user-supplied [delay] function keyed
    on the write's identity. Everything else (recording, effects
    processing) matches {!Sim_run}. *)

type action =
  | Write of { proc : int; var : int; value : int }
  | Read of { proc : int; var : int }

type outcome = {
  execution : Execution.t;
  protocol_name : string;
  engine_steps : int;
}

val run :
  (module Dsm_core.Protocol.S) ->
  n:int ->
  m:int ->
  ops:(float * action) list ->
  delay:(src:int -> dst:int -> dot:Dsm_vclock.Dot.t -> float) ->
  ?control_delay:float ->
  ?max_steps:int ->
  unit ->
  outcome
(** [ops] is a global timeline (times non-decreasing not required; each
    op is scheduled at its own absolute time). [delay] gives the
    transit time of the message carrying write [dot] from [src] to
    [dst]; [control_delay] (default [1.0]) is used for messages that
    carry no write (token traffic). For batch messages carrying several
    writes, the delay of the {e first} write in the batch is used.
    @raise Failure on step-limit exhaustion. *)

val quick_history :
  (module Dsm_core.Protocol.S) ->
  n:int ->
  m:int ->
  ops:(float * action) list ->
  delay:(src:int -> dst:int -> dot:Dsm_vclock.Dot.t -> float) ->
  Dsm_memory.History.t
(** Convenience: run and return just the reconstructed history. *)
