module Protocol = Dsm_core.Protocol
module Network = Dsm_sim.Network
module Engine = Dsm_sim.Engine
module Metrics = Dsm_obs.Metrics

(* Pre-resolved instrument handles: the hot path never touches the
   registry. With a null registry every update is a dead branch. *)
type probes = {
  p_live : bool;
  p_applies : Metrics.counter;
  p_delayed : Metrics.counter;
  p_skips : Metrics.counter;
  p_reads : Metrics.counter;
  p_writes : Metrics.counter;
  p_merges : Metrics.counter;
  p_occupancy : Metrics.gauge;
}

let probes metrics =
  {
    p_live = Metrics.enabled metrics;
    p_applies = Metrics.counter metrics "proto_applies";
    p_delayed = Metrics.counter metrics "proto_delayed_applies";
    p_skips = Metrics.counter metrics "proto_skips";
    p_reads = Metrics.counter metrics "proto_reads";
    p_writes = Metrics.counter metrics "proto_writes";
    p_merges = Metrics.counter metrics "proto_wco_merges_on_read";
    p_occupancy = Metrics.gauge metrics "buffer_occupancy";
  }

module Make (P : Protocol.S) = struct
  module V = Dsm_vclock.Vector_clock

  type t = {
    me : int;
    proto : P.t;
    engine : Engine.t;
    network : P.msg Network.t;
    execution : Execution.t;
    probes : probes;
  }

  let now t = Engine.now t.engine

  let process_effects t (eff : P.msg Protocol.effects) =
    (* a writing-semantics skip is the logical apply of the overwritten
       write "immediately before" its overwriter's apply: record skips
       first so event order reflects that *)
    List.iter
      (fun dot ->
        Execution.record_skip t.execution ~proc:t.me ~time:(now t) dot)
      eff.skipped;
    List.iter
      (fun (a : Protocol.apply_record) ->
        Execution.record_apply t.execution ~proc:t.me ~time:(now t) a.adot
          ~var:a.avar ~value:a.avalue ~delayed:a.afrom_buffer)
      eff.applied;
    if t.probes.p_live then begin
      Metrics.add t.probes.p_skips (List.length eff.skipped);
      List.iter
        (fun (a : Protocol.apply_record) ->
          Metrics.incr t.probes.p_applies;
          if a.afrom_buffer then Metrics.incr t.probes.p_delayed)
        eff.applied
    end;
    List.iter
      (fun outbound ->
        let msg =
          match outbound with
          | Protocol.Broadcast m -> m
          | Protocol.Unicast { msg; _ } -> msg
        in
        List.iter
          (fun (dot, var, value) ->
            Execution.record_send t.execution ~proc:t.me ~time:(now t) dot
              ~var ~value)
          (P.msg_writes msg);
        match outbound with
        | Protocol.Broadcast m -> Network.broadcast t.network ~src:t.me m
        | Protocol.Unicast { dst; msg } ->
            Network.send t.network ~src:t.me ~dst msg)
      eff.to_send

  let on_delivery t ~src ~at:_ msg =
    let writes = P.msg_writes msg in
    List.iter
      (fun (dot, _, _) ->
        Execution.record_receipt t.execution ~proc:t.me ~time:(now t) dot
          ~src)
      writes;
    let eff = P.receive t.proto ~src msg in
    (* A write-carrying message that produced no apply and no skip was
       either buffered or discarded as a duplicate; [waiting_for]
       distinguishes the two (and names the missing predecessor) —
       buffering leaves the delivery state untouched, so asking after
       the fact is still exact. *)
    (match writes with
    | [] -> ()
    | _ when eff.applied = [] && eff.skipped = [] -> (
        match P.waiting_for t.proto ~src msg with
        | Some waiting_for ->
            List.iter
              (fun (dot, _, _) ->
                Execution.record_blocked t.execution ~proc:t.me
                  ~time:(now t) dot ~waiting_for)
              writes
        | None -> ())
    | _ -> ());
    process_effects t eff;
    if t.probes.p_live then Metrics.set t.probes.p_occupancy (P.buffered t.proto)

  let create ~cfg ~me ~engine ~network ~execution ?(metrics = Metrics.null ())
      () =
    let t =
      {
        me;
        proto = P.create cfg ~me;
        engine;
        network;
        execution;
        probes = probes metrics;
      }
    in
    Network.set_handler network me (fun ~src ~at msg ->
        on_delivery t ~src ~at msg);
    t

  let me t = t.me
  let protocol t = t.proto

  let write t ~var ~value =
    let dot, eff = P.write t.proto ~var ~value in
    if t.probes.p_live then Metrics.incr t.probes.p_writes;
    process_effects t eff;
    dot

  let read t ~var =
    if not t.probes.p_live then begin
      let value, read_from = P.read t.proto ~var in
      Execution.record_return t.execution ~proc:t.me ~time:(now t) ~var
        ~value ~read_from;
      (value, read_from)
    end
    else begin
      (* the interesting OptP counter: did this read grow Write_co —
         i.e. absorb a LastWriteOn vector — creating a new read-from
         ordering obligation? (ANBKH never counts here: its clock moves
         on deliveries instead — false causality.) *)
      let before = V.sum (P.local_clock t.proto) in
      let value, read_from = P.read t.proto ~var in
      let after = V.sum (P.local_clock t.proto) in
      Metrics.incr t.probes.p_reads;
      if after > before then Metrics.incr t.probes.p_merges;
      Execution.record_return t.execution ~proc:t.me ~time:(now t) ~var
        ~value ~read_from;
      (value, read_from)
    end
end
