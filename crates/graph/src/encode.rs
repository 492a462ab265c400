//! Byte encodings that keep adjacency lists contiguous and sorted.

use crate::model::{EdgeType, VertexId};

/// The adjacency-list *group* key: `src (8B BE) ++ etype (2B BE)`. All
/// edges of one `(source, type)` pair share this group, which is what the
/// Bw-tree forest partitions on.
pub fn edge_group(src: VertexId, etype: EdgeType) -> Vec<u8> {
    edge_group_key(src, etype).to_vec()
}

/// [`edge_group`] as a stack array, for read paths that build one key
/// per frontier vertex.
pub fn edge_group_key(src: VertexId, etype: EdgeType) -> [u8; 10] {
    let mut out = [0u8; 10];
    out[..8].copy_from_slice(&src.0.to_be_bytes());
    out[8..].copy_from_slice(&etype.0.to_be_bytes());
    out
}

/// The *item* key within a group: `dst (8B BE)`. Big-endian keeps byte
/// order equal to numeric order, so scans return neighbors sorted by id.
pub fn edge_item(dst: VertexId) -> Vec<u8> {
    dst.0.to_be_bytes().to_vec()
}

/// Key for the vertex table.
pub fn vertex_key(id: VertexId) -> Vec<u8> {
    id.0.to_be_bytes().to_vec()
}

/// Recovers the destination vertex from an item key.
pub fn decode_dst(item: &[u8]) -> Option<VertexId> {
    Some(VertexId(u64::from_be_bytes(item.try_into().ok()?)))
}

/// Recovers `(src, etype)` from a group key.
pub fn decode_group(group: &[u8]) -> Option<(VertexId, EdgeType)> {
    if group.len() != 10 {
        return None;
    }
    let src = u64::from_be_bytes(group[..8].try_into().ok()?);
    let etype = u16::from_be_bytes(group[8..].try_into().ok()?);
    Some((VertexId(src), EdgeType(etype)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_round_trip() {
        let g = edge_group(VertexId(0xDEADBEEF), EdgeType(7));
        assert_eq!(g.len(), 10);
        assert_eq!(decode_group(&g), Some((VertexId(0xDEADBEEF), EdgeType(7))));
        assert_eq!(decode_group(&g[..9]), None);
        assert_eq!(edge_group_key(VertexId(0xDEADBEEF), EdgeType(7)), g[..]);
    }

    #[test]
    fn item_round_trip() {
        let i = edge_item(VertexId(42));
        assert_eq!(decode_dst(&i), Some(VertexId(42)));
        assert_eq!(decode_dst(&[1, 2]), None);
    }

    #[test]
    fn big_endian_preserves_numeric_order() {
        assert!(edge_item(VertexId(1)) < edge_item(VertexId(2)));
        assert!(edge_item(VertexId(255)) < edge_item(VertexId(256)));
        assert!(edge_group(VertexId(1), EdgeType(9)) < edge_group(VertexId(2), EdgeType(0)));
        assert!(edge_group(VertexId(1), EdgeType(0)) < edge_group(VertexId(1), EdgeType(1)));
    }
}
