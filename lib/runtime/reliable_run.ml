module Protocol = Dsm_core.Protocol
module Engine = Dsm_sim.Engine
module Network = Dsm_sim.Network
module Reliable_channel = Dsm_sim.Reliable_channel
module Rng = Dsm_sim.Rng
module Spec = Dsm_workload.Spec

type outcome = {
  execution : Execution.t;
  protocol_name : string;
  payloads_sent : int;
  frames_sent : int;
  frames_dropped : int;
  frames_duplicated : int;
  retransmissions : int;
  duplicates_discarded : int;
  engine_steps : int;
  end_time : float;
}

let run (module P : Protocol.S) ~spec ~latency ~faults
    ?(retransmit_after = 50.) ?(seed = 1) ?(max_steps = 20_000_000)
    ?(metrics = Dsm_obs.Metrics.null ()) ?(wire = Dsm_obs.Wire.null ())
    ?(recorder = Dsm_obs.Timeseries.null ()) ?(scrape_every = 25.)
    ?(queue = Engine.Indexed) ?(arena = true) ?(batch = false) () =
  let cfg = Protocol.config ~n:spec.Spec.n ~m:spec.Spec.m in
  let schedule = Dsm_workload.Generator.generate spec in
  let engine = Engine.create ~queue () in
  let rng = Rng.create seed in
  (* the accountant sees channel frames: data frames price the
     protocol's shape plus the channel envelope, retransmissions and
     acks appear under their own causes *)
  let measure = Reliable_channel.wire_frame P.msg_frame in
  let network =
    Network.create ~engine ~rng ~n:spec.Spec.n
      ~latency:(fun ~src:_ ~dst:_ -> latency)
      ~arena ~batch ~faults ~mangle:Reliable_channel.corrupt_frame ~metrics
      ~wire ~measure
      ~sizer:(fun f -> Dsm_obs.Wire.frame_bytes (measure f))
      ()
  in
  if Dsm_obs.Timeseries.enabled recorder then begin
    let horizon =
      Array.fold_left
        (fun acc ops ->
          List.fold_left (fun acc { Spec.at; _ } -> Float.max acc at) acc ops)
        0. schedule
    in
    if horizon >= scrape_every then
      Engine.schedule_every engine ~every:scrape_every
        ~until:(Dsm_sim.Sim_time.of_float horizon) (fun () ->
          Dsm_obs.Timeseries.scrape recorder
            ~now:(Dsm_sim.Sim_time.to_float (Engine.now engine)))
  end;
  let channel =
    Reliable_channel.create ~engine ~network ~retransmit_after ~metrics ()
  in
  let execution = Execution.create ~n:spec.Spec.n ~m:spec.Spec.m () in
  let protos = Array.init spec.Spec.n (fun me -> P.create cfg ~me) in
  let rec process proc (eff : P.msg Protocol.effects) =
    List.iter
      (fun dot ->
        Execution.record_skip execution ~proc ~time:(Engine.now engine) dot)
      eff.skipped;
    List.iter
      (fun (a : Protocol.apply_record) ->
        Execution.record_apply execution ~proc ~time:(Engine.now engine)
          a.adot ~var:a.avar ~value:a.avalue ~delayed:a.afrom_buffer)
      eff.applied;
    List.iter
      (fun outbound ->
        let msg =
          match outbound with
          | Protocol.Broadcast m -> m
          | Protocol.Unicast { msg; _ } -> msg
        in
        List.iter
          (fun (dot, var, value) ->
            Execution.record_send execution ~proc ~time:(Engine.now engine)
              dot ~var ~value)
          (P.msg_writes msg);
        match outbound with
        | Protocol.Broadcast m ->
            Reliable_channel.broadcast channel ~src:proc m
        | Protocol.Unicast { dst; msg } ->
            Reliable_channel.send channel ~src:proc ~dst msg)
      eff.to_send
  and deliver dst ~src msg =
    let writes = P.msg_writes msg in
    List.iter
      (fun (dot, _, _) ->
        Execution.record_receipt execution ~proc:dst
          ~time:(Engine.now engine) dot ~src)
      writes;
    let eff = P.receive protos.(dst) ~src msg in
    (* same rule as {!Node.Make}: a carried write that neither applied
       nor skipped was buffered — name the predecessor it waits on *)
    (match writes with
    | [] -> ()
    | _ when eff.Protocol.applied = [] && eff.Protocol.skipped = [] -> (
        match P.waiting_for protos.(dst) ~src msg with
        | Some waiting_for ->
            List.iter
              (fun (dot, _, _) ->
                Execution.record_blocked execution ~proc:dst
                  ~time:(Engine.now engine) dot ~waiting_for)
              writes
        | None -> ())
    | _ -> ());
    process dst eff
  in
  for dst = 0 to spec.Spec.n - 1 do
    Reliable_channel.set_handler channel dst (fun ~src ~at:_ msg ->
        deliver dst ~src msg)
  done;
  Array.iteri
    (fun proc ops ->
      let write_seq = ref 0 in
      List.iter
        (fun { Spec.at; op } ->
          Engine.schedule_at engine (Dsm_sim.Sim_time.of_float at)
            (fun () ->
              match op with
              | Spec.Do_write { var } ->
                  incr write_seq;
                  let value =
                    Sim_run.write_value ~proc ~seq:!write_seq
                  in
                  let _, eff = P.write protos.(proc) ~var ~value in
                  process proc eff
              | Spec.Do_read { var } ->
                  let value, read_from = P.read protos.(proc) ~var in
                  Execution.record_return execution ~proc
                    ~time:(Engine.now engine) ~var ~value ~read_from))
        ops)
    schedule;
  (match Engine.run ~max_steps engine with
  | Engine.Drained -> ()
  | Engine.Hit_step_limit ->
      failwith
        (Printf.sprintf "Reliable_run: %s did not quiesce within %d events"
           P.name max_steps)
  | Engine.Hit_time_limit -> assert false);
  {
    execution;
    protocol_name = P.name;
    payloads_sent = Reliable_channel.payloads_sent channel;
    frames_sent = Network.messages_sent network;
    frames_dropped = Network.messages_dropped network;
    frames_duplicated = Network.messages_duplicated network;
    retransmissions = Reliable_channel.retransmissions channel;
    duplicates_discarded = Reliable_channel.duplicates_discarded channel;
    engine_steps = Engine.steps_executed engine;
    end_time = Dsm_sim.Sim_time.to_float (Engine.now engine);
  }

let pp_outcome ppf o =
  Format.fprintf ppf
    "@[<v>%s over lossy links: %d payloads, %d frames (%d dropped, %d \
     duplicated), %d retransmissions, %d duplicates discarded, \
     t_end=%.1f@]"
    o.protocol_name o.payloads_sent o.frames_sent o.frames_dropped
    o.frames_duplicated o.retransmissions o.duplicates_discarded o.end_time
