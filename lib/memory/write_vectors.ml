module Dot = Dsm_vclock.Dot
module V = Dsm_vclock.Vector_clock

(* Dense storage: issuer [p]'s [i]-th write (0-based) carries sequence
   number [base.(p) + i + 1] — the local history's write counter starts
   at the floor — so a dot resolves to its slot by arithmetic, and the
   stored dot confirms the identity (generation included). Reads sit at
   their slot: local histories number them densely from 0. *)
type t = {
  history : History.t;
  base : int array;  (* per issuer: the floor component, 0 without one *)
  dots : Dot.t array array;  (* per issuer, by write index *)
  wvecs : V.t array array;  (* per issuer, by write index *)
  rvecs : V.t array array;  (* per process, by read slot *)
}

(* placeholder of a vector not computed yet *)
let empty_vec = V.create 1

(* index of [d] among its issuer's writes, or -1 when it is not one *)
let index ~base ~dots d =
  let j = Dot.replica d in
  if j >= Array.length dots then -1
  else
    let i = Dot.seq d - base.(j) - 1 in
    if i >= 0 && i < Array.length dots.(j) && Dot.equal dots.(j).(i) d then i
    else -1

let compute ?floor history =
  (match History.validate ?floor history with
  | Ok () -> ()
  | Error _ -> invalid_arg "Write_vectors.compute: ill-formed history");
  let n = History.n_processes history in
  let locals = Array.init n (History.local history) in
  let dots =
    Array.map
      (fun ops ->
        Array.of_list
          (List.filter_map
             (function
               | Operation.Write w -> Some w.Operation.wdot
               | Operation.Read _ -> None)
             ops))
      locals
  in
  let wvecs = Array.map (fun d -> Array.make (Array.length d) empty_vec) dots in
  let rvecs =
    Array.map
      (fun ops ->
        Array.make (List.length (List.filter Operation.is_read ops)) empty_vec)
      locals
  in
  let pending = Array.map ref locals in
  (* windowed mode: the running vectors start from the floor — every
     process had applied all of the previous windows' writes at the
     convergence barrier that closed them, so the floor IS each
     process's causal past at the window boundary *)
  let start () =
    match floor with
    | None -> V.create (max n 1)
    | Some f ->
        let v = V.create (max n 1) in
        V.merge_into v f;
        v
  in
  let running = Array.init n (fun _ -> start ()) in
  let base = Array.init n (fun p -> V.get running.(p) p) in
  let below_floor d =
    match floor with
    | None -> false
    | Some f -> Dot.seq d <= V.get0 f (Dot.replica d)
  in
  (* the vector of [d] if it is already timestamped *)
  let find d =
    match index ~base ~dots d with
    | -1 -> None
    | i ->
        let v = wvecs.(Dot.replica d).(i) in
        if v == empty_vec then None else Some v
  in
  (* one step of process p: returns true on progress, false when p is
     exhausted or blocked on a not-yet-timestamped read-from write *)
  let step p =
    match !(pending.(p)) with
    | [] -> false
    | op :: rest -> (
        match op with
        | Operation.Write w ->
            V.tick running.(p) p;
            assert (V.get running.(p) p = Dot.seq w.wdot);
            wvecs.(p).(Dot.seq w.wdot - base.(p) - 1) <- V.copy running.(p);
            pending.(p) := rest;
            true
        | Operation.Read r -> (
            let ready =
              match r.read_from with
              | None -> true
              | Some d -> (
                  match find d with
                  | Some v ->
                      V.merge_into running.(p) v;
                      true
                  | None ->
                      (* a compacted write from an earlier window: its
                         vector is dominated by the floor, which the
                         running vector already carries — ready,
                         nothing further to merge *)
                      below_floor d)
            in
            if ready then begin
              rvecs.(p).(r.rslot) <- V.copy running.(p);
              pending.(p) := rest
            end;
            ready))
  in
  let rec round () =
    let progress = ref false in
    for p = 0 to n - 1 do
      while step p do
        progress := true
      done
    done;
    if Array.exists (fun l -> !l <> []) pending then
      if !progress then round ()
      else
        invalid_arg
          "Write_vectors.compute: cyclic read-from dependencies \
           (corrupt history)"
  in
  if n > 0 then round ();
  { history; base; dots; wvecs; rvecs }

let history t = t.history

let shared_of_write t d =
  match index ~base:t.base ~dots:t.dots d with
  | -1 -> raise Not_found
  | i -> t.wvecs.(Dot.replica d).(i)

let shared_of_read t ~proc ~slot =
  if proc < 0 || proc >= Array.length t.rvecs then raise Not_found;
  let r = t.rvecs.(proc) in
  if slot < 0 || slot >= Array.length r then raise Not_found;
  r.(slot)

let of_write t d = V.copy (shared_of_write t d)
let of_read t ~proc ~slot = V.copy (shared_of_read t ~proc ~slot)

(* Corollary 1: w' ↦co w  ⟺  seq w' <= w.Write_co[replica w'] *)
let write_precedes t d1 d2 =
  (not (Dot.equal d1 d2))
  && ignore (shared_of_write t d1) = ()
  && Dot.seq d1 <= V.get (shared_of_write t d2) (Dot.replica d1)

let write_concurrent t d1 d2 =
  (not (Dot.equal d1 d2))
  && (not (write_precedes t d1 d2))
  && not (write_precedes t d2 d1)

let write_precedes_read t d ~proc ~slot =
  ignore (shared_of_write t d);
  Dot.seq d <= V.get (shared_of_read t ~proc ~slot) (Dot.replica d)
