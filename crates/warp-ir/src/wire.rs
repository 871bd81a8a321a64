//! Wire codec impls for the IR types persisted inside a
//! `CompiledModule` artifact, and for the [`LowerOptions`] the cache
//! key hashes. Enum tags and field orders are on-disk format; changing
//! them requires a store schema-version bump.
//! ([`crate::region::Layout`]'s impls live in `region.rs` because its
//! fields are module-private.)

use crate::affine::{Affine, LoopId};
use crate::build::LowerOptions;
use crate::comm::CommReport;
use crate::dag::{Block, BlockId, CmpOp, HostSlot, Node, NodeId, NodeKind};
use crate::region::{CellIr, LoopMeta, Region};
use warp_common::{wire_enum, wire_newtype, wire_struct};

wire_struct!(LowerOptions {
    optimize,
    memory_words,
    unroll,
    reassociate,
});

wire_newtype!(LoopId);
wire_newtype!(NodeId);
wire_newtype!(BlockId);

wire_struct!(Affine { constant, terms });

wire_enum!(CmpOp {
    0 => Eq,
    1 => Ne,
    2 => Lt,
    3 => Le,
    4 => Gt,
    5 => Ge,
});

wire_enum!(HostSlot {
    0 => Lit(value),
    1 => Elem { var, index },
});

wire_enum!(NodeKind {
    0 => ConstF(value),
    1 => ConstB(value),
    2 => Load { var, addr },
    3 => Store { var, addr },
    4 => Recv { dir, chan, ext },
    5 => Send { dir, chan, ext },
    6 => FAdd,
    7 => FSub,
    8 => FMul,
    9 => FDiv,
    10 => FNeg,
    11 => FCmp(op),
    12 => BAnd,
    13 => BOr,
    14 => BNot,
    15 => Select,
});

wire_struct!(Node { kind, inputs, deps });
wire_struct!(Block { nodes, roots });
wire_struct!(LoopMeta { var, lo, count });

wire_enum!(Region {
    0 => Block(block),
    1 => Loop { id, body },
    2 => Seq(regions),
});

wire_struct!(CommReport {
    right_cycle,
    left_cycle,
    sends_right,
    sends_left,
    recvs_left,
    recvs_right,
});

wire_struct!(CellIr {
    name,
    blocks,
    loops,
    root,
    layout,
    vars,
    n_cells,
});

#[cfg(test)]
mod tests {
    use super::*;
    use w2_lang::ast::{Chan, Dir};
    use w2_lang::hir::VarId;
    use warp_common::wire::{from_bytes, to_bytes, WireError};

    #[test]
    fn dag_types_round_trip() {
        let addr = Affine::constant(3)
            .add(&Affine::term(LoopId(0), 10))
            .add(&Affine::term(LoopId(2), -1));
        let back: Affine = from_bytes(&to_bytes(&addr)).unwrap();
        assert_eq!(addr, back);

        let node = Node {
            kind: NodeKind::Recv {
                dir: Dir::Left,
                chan: Chan::X,
                ext: Some(HostSlot::Elem {
                    var: VarId(1),
                    index: Affine::term(LoopId(0), 1),
                }),
            },
            inputs: vec![NodeId(0), NodeId(2)],
            deps: vec![NodeId(1)],
        };
        let back: Node = from_bytes(&to_bytes(&node)).unwrap();
        assert_eq!(node, back);

        let kind = NodeKind::FCmp(CmpOp::Le);
        assert_eq!(from_bytes::<NodeKind>(&to_bytes(&kind)).unwrap(), kind);
    }

    #[test]
    fn region_tree_round_trips() {
        let region = Region::Seq(vec![
            Region::Block(BlockId(0)),
            Region::Loop {
                id: LoopId(0),
                body: Box::new(Region::Block(BlockId(1))),
            },
        ]);
        let back: Region = from_bytes(&to_bytes(&region)).unwrap();
        assert_eq!(region, back);
    }

    #[test]
    fn unknown_tag_is_rejected_with_type_name() {
        let err = from_bytes::<NodeKind>(&[200]).unwrap_err();
        assert_eq!(
            err,
            WireError::BadTag {
                what: "NodeKind",
                tag: 200
            }
        );
    }
}
