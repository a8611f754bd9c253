let cpu_seconds (port : Proto.port) inst =
  Sys_params.cpu_seconds ~mips:port.Proto.mips inst

let use_cpu port inst =
  if inst > 0 then Sim.Facility.use port.Proto.cpu (cpu_seconds port inst)

let send ?tag net ~msg_inst ~src ~dst ~bytes ~deliver =
  let pkts = Net.Network.packets_for net ~bytes in
  let inst = msg_inst * pkts in
  use_cpu src inst;
  Net.Network.post ?tag net ~bytes ~deliver:(fun ctx ->
      if inst > 0 then
        Sim.Facility.submit dst.Proto.cpu ~service:(cpu_seconds dst inst)
          (fun () -> deliver ctx)
      else deliver ctx)
