//! The versioned binary snapshot of an [`EncodedDatabase`].
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic "TSNP" | u32 format_version | u64 generation
//! section: catalog      (attr registry + relation names/schemas)
//! section: dictionary   (sorted int base, sorted str base, overflow)
//! section: relation × N (version, counts, flat codes)
//! section: meta         (dict epoch, total tuples)
//! magic "PNST"
//! ```
//!
//! Each section is length-prefixed and CRC-checksummed
//! ([`super::format`]); the trailing magic proves the file was not
//! truncated exactly on a section boundary. The encoded buffers are
//! already contiguous (`Vec<u32>` codes, `Vec<u128>` counts), so a save
//! is straight buffer dumps and a load is straight reads — **no CSV
//! parse, no dictionary sort, no re-encode**. The dictionary is stored
//! region-by-region in code order, so every value keeps the exact code
//! it had when saved and the loaded encoding is bit-identical.
//!
//! Publication is atomic: write to `<name>.tmp`, fsync the file, rename
//! into place, fsync the directory. A crash mid-save leaves at worst a
//! stale `.tmp`; the previous snapshot generation is untouched.

use super::format::{read_section, write_section, ByteReader, ByteWriter};
use super::{fsync_dir, StoreError};
use crate::encoded::{Dict, EncodedRelation};
use crate::par::Pool;
use crate::schema::Schema;
use crate::value::Value;
use crate::{AttrId, Database, EncodedDatabase, Relation};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// One relation's decoded `Value` rows plus its tuple total (counts
/// expanded), as produced by the parallel snapshot decode.
type DecodedRows = (Vec<Vec<Value>>, u64);

/// Leading magic: "TSNP".
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"TSNP";
/// Trailing magic: the header magic reversed.
pub const SNAPSHOT_FOOTER: [u8; 4] = *b"PNST";
/// Current snapshot format version. Loads reject anything newer; older
/// versions would be migrated here if the format ever changes.
pub const SNAPSHOT_VERSION: u32 = 1;

/// `snapshot-<generation>.tsnap`, zero-padded so lexicographic order is
/// generation order.
pub fn snapshot_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("snapshot-{generation:016}.tsnap"))
}

/// Summary of a snapshot file — what `tsens-cli snapshot inspect`
/// prints and recovery logs.
#[derive(Debug, Clone)]
pub struct SnapshotInfo {
    pub generation: u64,
    pub format_version: u32,
    pub file_bytes: u64,
    pub epoch: u64,
    pub dict_values: usize,
    pub dict_overflow: usize,
    pub total_tuples: u64,
    /// `(name, arity, distinct rows)` per relation.
    pub relations: Vec<(String, usize, usize)>,
}

/// Serialize `(db, enc)` as generation `generation` into `dir`,
/// atomically. Returns the published path.
///
/// # Errors
/// I/O failures; [`StoreError::Corrupt`] if the encoding is partial
/// (non-resident relations cannot be persisted).
pub fn save_snapshot(
    dir: &Path,
    generation: u64,
    db: &Database,
    enc: &EncodedDatabase,
) -> Result<PathBuf, StoreError> {
    if !enc.fully_resident() {
        return Err(StoreError::Corrupt(
            "cannot snapshot a partial (non-resident) encoding".into(),
        ));
    }
    if db.relation_count() != enc.relation_count() {
        return Err(StoreError::Corrupt(format!(
            "catalog/encoding disagree: {} vs {} relations",
            db.relation_count(),
            enc.relation_count()
        )));
    }
    let path = snapshot_path(dir, generation);
    let tmp = path.with_extension("tsnap.tmp");
    let file = File::create(&tmp)?;
    let mut w = BufWriter::new(file);

    w.write_all(&SNAPSHOT_MAGIC)?;
    w.write_all(&SNAPSHOT_VERSION.to_le_bytes())?;
    w.write_all(&generation.to_le_bytes())?;

    write_section(&mut w, &catalog_payload(db))?;
    write_section(&mut w, &dict_payload(enc))?;
    for idx in 0..enc.relation_count() {
        let rel = enc.lifted(idx).expect("fully resident");
        write_section(&mut w, &relation_payload(enc.version(idx), rel))?;
    }
    let mut meta = ByteWriter::with_capacity(16);
    meta.put_u64(enc.epoch());
    meta.put_u64(db.total_tuples() as u64);
    write_section(&mut w, &meta.into_bytes())?;
    w.write_all(&SNAPSHOT_FOOTER)?;

    let file = w.into_inner().map_err(|e| StoreError::Io(e.to_string()))?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, &path)?;
    fsync_dir(dir)?;
    Ok(path)
}

fn catalog_payload(db: &Database) -> Vec<u8> {
    let mut w = ByteWriter::default();
    let registry = db.registry();
    w.put_u32(registry.len() as u32);
    for (_, name) in registry.iter() {
        w.put_str(name);
    }
    w.put_u32(db.relation_count() as u32);
    for (_, name, rel) in db.iter() {
        w.put_str(name);
        let attrs = rel.schema().attrs();
        w.put_u32(attrs.len() as u32);
        for a in attrs {
            w.put_u32(a.0);
        }
    }
    w.into_bytes()
}

fn dict_payload(enc: &EncodedDatabase) -> Vec<u8> {
    let (ints, strs, overflow) = enc.dict().regions();
    let mut w = ByteWriter::with_capacity(ints.len() * 8 + strs.len() * 8);
    w.put_u64(ints.len() as u64);
    for &x in ints {
        w.put_i64(x);
    }
    w.put_u64(strs.len() as u64);
    for v in strs {
        match v {
            Value::Str(s) => w.put_str(s),
            Value::Int(_) => unreachable!("string region holds strings"),
        }
    }
    w.put_u64(overflow.len() as u64);
    for v in overflow {
        match v {
            Value::Int(x) => {
                w.put_u8(0);
                w.put_i64(*x);
            }
            Value::Str(s) => {
                w.put_u8(1);
                w.put_str(s);
            }
        }
    }
    w.into_bytes()
}

fn relation_payload(version: u64, rel: &EncodedRelation) -> Vec<u8> {
    let codes = rel.raw_codes();
    let counts = rel.raw_counts();
    let mut w = ByteWriter::with_capacity(24 + codes.len() * 4 + counts.len() * 16);
    w.put_u64(version);
    w.put_u32(rel.arity() as u32);
    w.put_u64(counts.len() as u64);
    for &c in counts {
        w.put_u128(c);
    }
    for &c in codes {
        w.put_u32(c);
    }
    w.into_bytes()
}

/// A snapshot loaded back into memory: the Value-level catalog and the
/// resident encoding, exactly as saved.
pub struct LoadedSnapshot {
    pub generation: u64,
    pub db: Database,
    pub enc: EncodedDatabase,
    pub info: SnapshotInfo,
}

/// Load and fully validate a snapshot file.
///
/// The encoding is reconstructed from the raw buffers (no re-encode);
/// the Value-level catalog is rebuilt by decoding each lifted relation,
/// expanding multiplicities — still far cheaper than the CSV path,
/// which pays parse + whole-database dictionary sort + encode + group.
///
/// # Errors
/// [`StoreError::BadMagic`] / [`StoreError::UnsupportedVersion`] /
/// [`StoreError::Corrupt`] on any damage; [`StoreError::Io`] otherwise.
/// Never panics on arbitrary bytes.
pub fn load_snapshot(path: &Path) -> Result<LoadedSnapshot, StoreError> {
    load_snapshot_with_pool(path, &Pool::default())
}

/// [`load_snapshot`] with an explicit worker pool: the per-relation
/// Value-row decodes fan out across `pool`, so recovery and cold start
/// scale with cores. `Pool::sequential()` reproduces the single-threaded
/// load exactly.
///
/// # Errors
/// As [`load_snapshot`].
pub fn load_snapshot_with_pool(path: &Path, pool: &Pool) -> Result<LoadedSnapshot, StoreError> {
    let file = File::open(path)?;
    let file_bytes = file.metadata()?.len();
    let mut r = BufReader::new(file);

    let mut head = [0u8; 16];
    r.read_exact(&mut head)
        .map_err(|e| StoreError::Corrupt(format!("snapshot header: {e}")))?;
    if head[0..4] != SNAPSHOT_MAGIC {
        return Err(StoreError::BadMagic);
    }
    let format_version = u32::from_le_bytes(head[4..8].try_into().expect("4"));
    if format_version != SNAPSHOT_VERSION {
        return Err(StoreError::UnsupportedVersion(format_version));
    }
    let generation = u64::from_le_bytes(head[8..16].try_into().expect("8"));

    // Catalog: registry + empty relations with their schemas.
    let catalog = read_section(&mut r, "catalog")?;
    let mut c = ByteReader::new(&catalog, "catalog");
    let mut db = Database::new();
    let attr_count = c.get_u32()? as usize;
    for i in 0..attr_count {
        let name = c.get_str()?;
        let id = db.attr(&name);
        if id.index() != i {
            return Err(StoreError::Corrupt(format!(
                "catalog: duplicate attribute name {name:?}"
            )));
        }
    }
    let rel_count = c.get_u32()? as usize;
    let mut schemas: Vec<Schema> = Vec::with_capacity(rel_count);
    for _ in 0..rel_count {
        let name = c.get_str()?;
        let arity = c.get_u32()? as usize;
        let mut attrs = Vec::with_capacity(arity.min(1024));
        for _ in 0..arity {
            let a = c.get_u32()?;
            if a as usize >= attr_count {
                return Err(StoreError::Corrupt(format!(
                    "catalog: attribute id {a} out of range"
                )));
            }
            attrs.push(AttrId(a));
        }
        let schema = Schema::new(attrs);
        schemas.push(schema.clone());
        db.add_relation(&name, Relation::new(schema))?;
    }
    if !c.exhausted() {
        return Err(StoreError::Corrupt("catalog: trailing bytes".into()));
    }

    // Dictionary, restored region-by-region (identical codes, no sort).
    let dict_bytes = read_section(&mut r, "dictionary")?;
    let mut d = ByteReader::new(&dict_bytes, "dictionary");
    let n_ints = d.get_count(dict_bytes.len() / 8)?;
    let mut ints = Vec::with_capacity(n_ints);
    for _ in 0..n_ints {
        ints.push(d.get_i64()?);
    }
    let n_strs = d.get_count(dict_bytes.len() / 4)?;
    let mut strs = Vec::with_capacity(n_strs);
    for _ in 0..n_strs {
        strs.push(Value::str(&d.get_str()?));
    }
    let n_overflow = d.get_count(dict_bytes.len())?;
    let mut overflow = Vec::with_capacity(n_overflow);
    for _ in 0..n_overflow {
        overflow.push(match d.get_u8()? {
            0 => Value::Int(d.get_i64()?),
            1 => Value::str(&d.get_str()?),
            t => {
                return Err(StoreError::Corrupt(format!(
                    "dictionary: unknown overflow tag {t}"
                )))
            }
        });
    }
    if !d.exhausted() {
        return Err(StoreError::Corrupt("dictionary: trailing bytes".into()));
    }
    let dict_values = ints.len() + strs.len() + overflow.len();
    let dict_overflow = overflow.len();
    let dict = Dict::from_regions(ints, strs, overflow)?;

    // Relations: raw buffer reads, validated against the catalog.
    let mut lifted = Vec::with_capacity(rel_count);
    let mut versions = Vec::with_capacity(rel_count);
    let mut relations_info = Vec::with_capacity(rel_count);
    for (idx, schema) in schemas.iter().enumerate() {
        let what = format!("relation {}", db.relation_name(idx));
        let bytes = read_section(&mut r, &what)?;
        let mut b = ByteReader::new(&bytes, &what);
        versions.push(b.get_u64()?);
        let arity = b.get_u32()? as usize;
        if arity != schema.arity() {
            return Err(StoreError::Corrupt(format!(
                "{what}: arity {arity} disagrees with catalog {}",
                schema.arity()
            )));
        }
        let entries = b.get_count(bytes.len() / 16)?;
        let mut counts = Vec::with_capacity(entries);
        for _ in 0..entries {
            counts.push(b.get_u128()?);
        }
        let mut codes = Vec::with_capacity(entries * arity);
        for _ in 0..entries * arity {
            let c = b.get_u32()?;
            if c as usize >= dict_values {
                return Err(StoreError::Corrupt(format!(
                    "{what}: code {c} outside dictionary"
                )));
            }
            codes.push(c);
        }
        if !b.exhausted() {
            return Err(StoreError::Corrupt(format!("{what}: trailing bytes")));
        }
        relations_info.push((db.relation_name(idx).to_owned(), arity, entries));
        lifted.push(EncodedRelation::from_raw(schema.clone(), codes, counts)?);
    }

    let meta_bytes = read_section(&mut r, "meta")?;
    let mut m = ByteReader::new(&meta_bytes, "meta");
    let epoch = m.get_u64()?;
    let total_tuples = m.get_u64()?;
    let mut footer = [0u8; 4];
    r.read_exact(&mut footer)
        .map_err(|e| StoreError::Corrupt(format!("snapshot footer: {e}")))?;
    if footer != SNAPSHOT_FOOTER {
        return Err(StoreError::Corrupt("bad snapshot footer".into()));
    }

    // Rebuild the Value-level rows by decoding the lifted relations
    // (bag semantics: a count-k entry expands to k physical rows). The
    // per-relation decodes are independent and fan out across `pool`;
    // each worker caps its own running total at the meta bound so a
    // corrupt multiplicity cannot balloon memory before the final
    // cross-relation check below.
    let decoded: Vec<Result<DecodedRows, StoreError>> = pool.run(lifted.len(), |idx| {
        let rel = &lifted[idx];
        let name = db.relation_name(idx);
        let mut rows: Vec<Vec<Value>> = Vec::with_capacity(rel.len());
        let mut tuples: u64 = 0;
        for i in 0..rel.len() {
            let row: Vec<Value> = rel.row(i).iter().map(|&c| dict.decode(c)).collect();
            let copies = usize::try_from(rel.count(i)).map_err(|_| {
                StoreError::Corrupt(format!(
                    "relation {name}: multiplicity exceeds addressable rows"
                ))
            })?;
            tuples = tuples.saturating_add(copies as u64);
            if tuples > total_tuples {
                return Err(StoreError::Corrupt(
                    "decoded more tuples than the meta section recorded".into(),
                ));
            }
            for _ in 1..copies {
                rows.push(row.clone());
            }
            if copies > 0 {
                rows.push(row);
            }
        }
        Ok((rows, tuples))
    });
    let mut decoded_tuples: u64 = 0;
    for (idx, res) in decoded.into_iter().enumerate() {
        let (rows, tuples) = res?;
        decoded_tuples = decoded_tuples.saturating_add(tuples);
        if decoded_tuples > total_tuples {
            return Err(StoreError::Corrupt(
                "decoded more tuples than the meta section recorded".into(),
            ));
        }
        let out = db.relation_mut(idx);
        for row in rows {
            out.push(row);
        }
    }
    if decoded_tuples != total_tuples {
        return Err(StoreError::Corrupt(format!(
            "decoded {decoded_tuples} tuples, meta recorded {total_tuples}"
        )));
    }

    let enc = EncodedDatabase::from_loaded_parts(dict, lifted, versions, epoch)?;
    let info = SnapshotInfo {
        generation,
        format_version,
        file_bytes,
        epoch,
        dict_values,
        dict_overflow,
        total_tuples,
        relations: relations_info,
    };
    Ok(LoadedSnapshot {
        generation,
        db,
        enc,
        info,
    })
}

/// Load only the summary of a snapshot (full validation included — an
/// inspect that lies about a corrupt file would be worse than useless).
///
/// # Errors
/// As [`load_snapshot`].
pub fn inspect_snapshot(path: &Path) -> Result<SnapshotInfo, StoreError> {
    load_snapshot(path).map(|l| l.info)
}
