(* Allocation measurement for the tests' allocation bounds. *)

(* Words allocated by [f ()], minor and direct-to-major together: an
   array above the minor heap's size limit skips the minor heap, so
   [Gc.minor_words] alone would not see a return to dense n-length
   storage.  The minor part comes from [Gc.minor_words], which counts
   exactly: the minor figure of [Gc.counters] reads an eighth of the
   words on OCaml 5.1.  The cost of the measurement itself is
   subtracted. *)
let words_allocated f =
  let total () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let t0 = total () in
  let t1 = total () in
  let r = f () in
  let t2 = total () in
  ignore (Sys.opaque_identity r);
  t2 -. t1 -. (t1 -. t0)

(* Whether [@inline] functions are inlined across modules in this
   build.  dune compiles every module [-opaque] in its dev profile, so
   there a [float] that a library function returns is boxed at the
   call, as is a computed [float] passed to one; every other profile
   (CI's release build, the benchmark) inlines them. *)
let cross_module_inlining = Build_profile.name <> "dev"
