type 'a t = {
  engine : Engine.t;
  ids : Slots.t;
  jobs : 'a array ref;  (* The jobs pending, each at its id. *)
  due : Engine.callback;
}

let create engine run =
  let ids = Slots.create () and jobs = ref [||] in
  let due =
    Engine.callback (fun id ->
        let job = !jobs.(id) in
        Slots.give_back ids id;
        run job)
  in
  { engine; ids; jobs; due }

(* The id [job] is stored under. *)
let put t job =
  let id = Slots.take t.ids and jobs = !(t.jobs) in
  if id = Array.length jobs then begin
    t.jobs := Array.make (max 8 (2 * id)) job;
    Array.blit jobs 0 !(t.jobs) 0 id
  end;
  !(t.jobs).(id) <- job;
  id

let[@inline] post t ~delay job = Engine.post t.engine ~delay t.due (put t job)

let post_at t ~time job = Engine.post_at t.engine ~time t.due (put t job)

let depth t = Slots.used t.ids
