module Protocol = Dsm_core.Protocol
module Engine = Dsm_sim.Engine

type action =
  | Write of { proc : int; var : int; value : int }
  | Read of { proc : int; var : int }

type outcome = {
  execution : Execution.t;
  protocol_name : string;
  engine_steps : int;
}

let run (module P : Protocol.S) ~n ~m ~ops ~delay ?(control_delay = 1.0)
    ?(max_steps = 1_000_000) () =
  let cfg = Protocol.config ~n ~m in
  let engine = Engine.create () in
  let execution = Execution.create ~n ~m () in
  let protos = Array.init n (fun me -> P.create cfg ~me) in
  let record proc kind =
    Execution.record execution ~proc ~time:(Engine.now engine) kind
  in
  let rec process proc (eff : P.msg Protocol.effects) =
    (* skips logically precede the applies they enable; see Node *)
    List.iter (fun dot -> record proc (Execution.Skip { dot })) eff.skipped;
    List.iter
      (fun (a : Protocol.apply_record) ->
        record proc
          (Execution.Apply
             {
               dot = a.adot;
               var = a.avar;
               value = a.avalue;
               delayed = a.afrom_buffer;
             }))
      eff.applied;
    List.iter
      (fun outbound ->
        let msg, dsts =
          match outbound with
          | Protocol.Broadcast msg ->
              (msg, List.filter (fun d -> d <> proc) (List.init n Fun.id))
          | Protocol.Unicast { dst; msg } -> (msg, [ dst ])
        in
        let carried = P.msg_writes msg in
        List.iter
          (fun (dot, var, value) ->
            record proc (Execution.Send { dot; var; value }))
          carried;
        List.iter
          (fun dst ->
            let transit =
              match carried with
              | [] -> control_delay
              | (dot, _, _) :: _ -> delay ~src:proc ~dst ~dot
            in
            Engine.schedule_after engine transit (fun () ->
                deliver ~dst ~src:proc msg))
          dsts)
      eff.to_send
  and deliver ~dst ~src msg =
    let writes = P.msg_writes msg in
    List.iter
      (fun (dot, _, _) -> record dst (Execution.Receipt { dot; src }))
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
                record dst (Execution.Blocked { dot; waiting_for }))
              writes
        | None -> ())
    | _ -> ());
    process dst eff
  in
  List.iter
    (fun (at, action) ->
      Engine.schedule_at engine (Dsm_sim.Sim_time.of_float at) (fun () ->
          match action with
          | Write { proc; var; value } ->
              let _dot, eff = P.write protos.(proc) ~var ~value in
              process proc eff
          | Read { proc; var } ->
              let value, read_from = P.read protos.(proc) ~var in
              record proc (Execution.Return { var; value; read_from })))
    ops;
  (match Engine.run ~max_steps engine with
  | Engine.Drained -> ()
  | Engine.Hit_step_limit ->
      failwith
        (Printf.sprintf "Scripted_run: %s did not quiesce within %d events"
           P.name max_steps)
  | Engine.Hit_time_limit -> assert false);
  {
    execution;
    protocol_name = P.name;
    engine_steps = Engine.steps_executed engine;
  }

let quick_history p ~n ~m ~ops ~delay =
  Execution.to_history (run p ~n ~m ~ops ~delay ()).execution
