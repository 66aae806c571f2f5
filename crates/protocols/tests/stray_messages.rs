//! A message no controller expects is a typed protocol fault, never a
//! panic: the simulator turns it into `E-PROTOCOL` with a replay artifact.

use cmpsim_protocols::arin::Arin;
use cmpsim_protocols::common::{ChipSpec, CoherenceProtocol, Ctx, Msg, MsgKind, Node};
use cmpsim_protocols::dico::DiCo;
use cmpsim_protocols::directory::Directory;
use cmpsim_protocols::providers::Providers;

#[test]
fn memory_data_without_a_fetch_is_an_error_on_every_protocol() {
    let spec = ChipSpec::small();
    let protocols: Vec<Box<dyn CoherenceProtocol>> = vec![
        Box::new(Directory::new(spec.clone())),
        Box::new(DiCo::new(spec.clone())),
        Box::new(Providers::new(spec.clone())),
        Box::new(Arin::new(spec.clone())),
    ];
    let block = 100;
    let home = spec.home_of(block);
    for mut proto in protocols {
        let stray = Msg { kind: MsgKind::MemData, block, src: Node::L2(home), dst: Node::L2(home) };
        let err = proto.handle(&mut Ctx::at(0), stray).expect_err("stray MemData must be refused");
        assert_eq!(err.protocol, proto.kind());
        assert_eq!(err.block, block);
    }
}
