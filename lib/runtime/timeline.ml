(* marker significance, highest first *)
let rank = function
  | 'W' -> 5
  | '*' -> 4
  | 'A' -> 3
  | 'x' -> 2
  | 'R' -> 1
  | 'v' -> 0
  | _ -> -1

let marker_of c =
  let module C = Execution.Cursor in
  match C.tag c with
  | Apply ->
      if Execution.Key.replica (C.key c) = C.proc c then Some 'W'
      else if C.delayed c then Some '*'
      else Some 'A'
  | Receipt -> Some 'v'
  | Return -> Some 'R'
  | Skip -> Some 'x'
  | Send | Blocked -> None (* coincides with the issuer's W *)

let render ?(width = 72) ?(legend = true) exec =
  if width < 8 then invalid_arg "Timeline.render: width must be >= 8";
  let n = Execution.n_processes exec in
  let each_event f =
    let c = Execution.Cursor.global exec in
    while Execution.Cursor.next c do
      f c
    done
  in
  let t_end = ref 0. in
  each_event (fun c -> t_end := Float.max !t_end (Execution.Cursor.time c));
  let t_end = !t_end in
  let scale = if t_end > 0. then float_of_int (width - 1) /. t_end else 0. in
  let lanes = Array.init n (fun _ -> Bytes.make width '-') in
  each_event (fun c ->
      match marker_of c with
      | None -> ()
      | Some m ->
          let proc = Execution.Cursor.proc c in
          let col =
            min (width - 1) (int_of_float (Execution.Cursor.time c *. scale))
          in
          let cur = Bytes.get lanes.(proc) col in
          if rank m > rank cur then Bytes.set lanes.(proc) col m);
  let buf = Buffer.create (n * (width + 8)) in
  Buffer.add_string buf
    (Printf.sprintf "t = 0 %s %.1f\n"
       (String.make (max 0 (width - 12)) ' ')
       t_end);
  Array.iteri
    (fun p lane ->
      Buffer.add_string buf (Printf.sprintf "p%-2d |%s|\n" (p + 1)
        (Bytes.to_string lane)))
    lanes;
  if legend then
    Buffer.add_string buf
      "     W own write   v receipt   A apply   * delayed apply   R \
       read   x skip\n";
  Buffer.contents buf
