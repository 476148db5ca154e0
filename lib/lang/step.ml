module Op = Smem_core.Op

type thread = { env : Exec.Env.t; cont : Ast.stmt list; in_cs : bool; finished : bool }

let initial program =
  Array.map
    (fun code -> { env = Exec.Env.empty; cont = code; in_cs = false; finished = false })
    program.Ast.threads

type transition = Finish of Exec.Env.t | Act of Exec.action * Exec.Env.t * Ast.stmt list

let next layout ~fuel t =
  match Exec.step_to_action layout ~env:t.env ~cont:t.cont ~fuel with
  | Exec.Out_of_fuel -> None
  | Exec.Finished env -> Some (Finish env)
  | Exec.At_action (action, env, cont) -> Some (Act (action, env, cont))

exception Fuel_out

let nexts layout ~fuel threads =
  match
    Array.map
      (fun t ->
        if t.finished then None
        else match next layout ~fuel t with None -> raise Fuel_out | n -> n)
      threads
  with
  | nexts -> Some nexts
  | exception Fuel_out -> None

type event = Smem_machine.Driver.event = {
  proc : int;
  kind : Op.kind;
  loc : int;
  value : int;
  labeled : bool;
}

let apply (type m) (module M : Smem_machine.Machine_sig.MACHINE with type t = m)
    (machine : m) threads i tr =
  let t = threads.(i) in
  let with_thread t' =
    let threads' = Array.copy threads in
    threads'.(i) <- t';
    threads'
  in
  match tr with
  | Finish env -> (machine, with_thread { t with env; finished = true }, None)
  | Act (action, env, cont) -> (
      match action with
      | Exec.A_load { reg; loc; labeled } ->
          let v, machine' = M.read machine ~proc:i ~loc ~labeled in
          ( machine',
            with_thread { t with env = Exec.Env.set env reg v; cont },
            Some { proc = i; kind = Op.Read; loc; value = v; labeled } )
      | Exec.A_store { loc; value; labeled } ->
          ( M.write machine ~proc:i ~loc ~value ~labeled,
            with_thread { t with env; cont },
            Some { proc = i; kind = Op.Write; loc; value; labeled } )
      | Exec.A_tas { reg; loc } ->
          let old, machine' = M.test_and_set machine ~proc:i ~loc in
          ( machine',
            with_thread { t with env = Exec.Env.set env reg old; cont },
            Some { proc = i; kind = Op.Write; loc; value = 1; labeled = true } )
      | Exec.A_enter -> (machine, with_thread { t with env; cont; in_cs = true }, None)
      | Exec.A_exit -> (machine, with_thread { t with env; cont; in_cs = false }, None))

let enters_occupied threads = function
  | Act (Exec.A_enter, _, _) -> Array.exists (fun t -> t.in_cs) threads
  | Act _ | Finish _ -> false

let describe thread_id = function
  | Exec.A_load { reg; loc; labeled } ->
      Printf.sprintf "t%d: %s <- load loc%d%s" thread_id reg loc
        (if labeled then " (labeled)" else "")
  | Exec.A_store { loc; value; labeled } ->
      Printf.sprintf "t%d: store loc%d := %d%s" thread_id loc value
        (if labeled then " (labeled)" else "")
  | Exec.A_tas { reg; loc } ->
      Printf.sprintf "t%d: %s <- test-and-set loc%d" thread_id reg loc
  | Exec.A_enter -> Printf.sprintf "t%d: enter critical section" thread_id
  | Exec.A_exit -> Printf.sprintf "t%d: exit critical section" thread_id

exception Mutex_violation of string list

let apply_traced m machine threads path i tr =
  let path =
    match tr with Act (action, _, _) -> describe i action :: path | Finish _ -> path
  in
  if enters_occupied threads tr then raise (Mutex_violation (List.rev path));
  let machine', threads', _ = apply m machine threads i tr in
  (machine', threads', path)

let digest machine threads fields =
  Digest.string
    (Marshal.to_string (machine, Array.map fields threads) [ Marshal.No_sharing ])
