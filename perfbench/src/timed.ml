(* Host clock and the protocol timing wrapper.

   [Make (P)] is itself a [Protocol.S]: handed to a driver in place of
   [P], it times [write], [read], [receive], [snapshot] and [restore]
   and leaves the protocol's behaviour untouched (same effects, same
   state), so a traced run produces the same execution as the untraced
   one. *)

module Protocol = Dsm_core.Protocol

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Minor-heap words are whole numbers; kept as ints so that updating a
   counter does not itself allocate. *)
let minor_words () = int_of_float (Gc.minor_words ())

type stats = {
  mutable writes : int;
  mutable write_ns : int;
  mutable reads : int;
  mutable read_ns : int;
  mutable receives : int;
  mutable receive_ns : int;
  mutable receive_words : int;
  mutable wakeup_scans : int;
  mutable delayed : int;
  mutable snapshots : int;
  mutable snapshot_ns : int;
  mutable restores : int;
  mutable restore_ns : int;
}

let fresh () =
  {
    writes = 0;
    write_ns = 0;
    reads = 0;
    read_ns = 0;
    receives = 0;
    receive_ns = 0;
    receive_words = 0;
    wakeup_scans = 0;
    delayed = 0;
    snapshots = 0;
    snapshot_ns = 0;
    restores = 0;
    restore_ns = 0;
  }

module type TIMED = sig
  include Protocol.S

  val stats : unit -> stats
  (** Counters since the last {!reset}. *)

  val states : unit -> t list
  (** Replica states created or restored since the last {!reset}. *)

  val reset : unit -> unit
end

module Make (P : Protocol.S) :
  TIMED with type t = P.t and type msg = P.msg = struct
  include P

  let current = ref (fresh ())
  let live = ref []
  let stats () = !current
  let states () = !live

  let reset () =
    current := fresh ();
    live := []

  let keep t =
    live := t :: !live;
    t

  let create cfg ~me = keep (P.create cfg ~me)
  let adopt cfg ~me ~gen ~sponsor = keep (P.adopt cfg ~me ~gen ~sponsor)

  let write t ~var ~value =
    let stats = !current in
    let t0 = now_ns () in
    let r = P.write t ~var ~value in
    stats.write_ns <- stats.write_ns + (now_ns () - t0);
    stats.writes <- stats.writes + 1;
    r

  let read t ~var =
    let stats = !current in
    let t0 = now_ns () in
    let r = P.read t ~var in
    stats.read_ns <- stats.read_ns + (now_ns () - t0);
    stats.reads <- stats.reads + 1;
    r

  let receive t ~src msg =
    let stats = !current in
    let scans = P.buffer_wakeup_scans t in
    let w0 = minor_words () in
    let t0 = now_ns () in
    let eff = P.receive t ~src msg in
    let t1 = now_ns () in
    stats.receive_words <- stats.receive_words + (minor_words () - w0);
    stats.receive_ns <- stats.receive_ns + (t1 - t0);
    stats.receives <- stats.receives + 1;
    stats.wakeup_scans <-
      stats.wakeup_scans + (P.buffer_wakeup_scans t - scans);
    List.iter
      (fun (a : Protocol.apply_record) ->
        if a.afrom_buffer then stats.delayed <- stats.delayed + 1)
      eff.applied;
    eff

  let snapshot t =
    let stats = !current in
    let t0 = now_ns () in
    let s = P.snapshot t in
    stats.snapshot_ns <- stats.snapshot_ns + (now_ns () - t0);
    stats.snapshots <- stats.snapshots + 1;
    s

  let restore cfg ~me s =
    let stats = !current in
    let t0 = now_ns () in
    let t = P.restore cfg ~me s in
    stats.restore_ns <- stats.restore_ns + (now_ns () - t0);
    stats.restores <- stats.restores + 1;
    keep t
end
