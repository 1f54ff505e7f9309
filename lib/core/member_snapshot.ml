let adopt ~sink engine ~self (st : Mc_state.t) (lsa : Mc_lsa.t) =
  match lsa.members with
  | Some snapshot ->
    if not (Member.equal st.members snapshot) then begin
      let trace = Sim.Engine.trace engine in
      if Sim.Trace.enabled trace then
        Sim.Trace.recordf trace ~time:(Sim.Engine.now engine)
          ~category:"adopt"
          "sw%d adopts snapshot %s from src %d stamp %s E=%s R=%s (was %s)"
          self (Member.to_string snapshot) lsa.src
          (Format.asprintf "%a" Timestamp.pp lsa.stamp)
          (Format.asprintf "%a" Timestamp.pp st.e)
          (Format.asprintf "%a" Timestamp.pp st.r)
          (Member.to_string st.members);
      st.members <- snapshot;
      sink Switch_io.Changed
    end;
    st.membership_seen <- Timestamp.merge_owned st.membership_seen lsa.stamp;
    st.r <- Timestamp.merge_owned st.r lsa.stamp
  | None -> ()
