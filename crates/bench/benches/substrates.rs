//! Micro-benchmarks of the substrate layers (host performance of the
//! simulator itself, not virtual time). Runs on the local harness in
//! `gamma_bench::microbench`; gated behind the `bench-heavy` feature.

use gamma_bench::microbench::{black_box, Harness};
use gamma_core::bitfilter::BitFilter;
use gamma_core::hash::{hash_u32, JOIN_SEED};
use gamma_core::hash_table::JoinHashTable;
use gamma_core::split::{JoiningSplitTable, PartitioningSplitTable};
use gamma_des::Usage;
use gamma_net::{Fabric, RingConfig};
use gamma_wiss::btree::BPlusTree;
use gamma_wiss::{
    external_sort, BufferPool, DiskConfig, HeapScan, HeapWriter, Page, SortConfig, SortCost, Volume,
};

fn bench_hash(c: &mut Harness) {
    let mut g = c.group("hash");
    g.throughput_elems(1);
    g.bench("hash_u32", |b| {
        let mut v = 0u32;
        b.iter(|| {
            v = v.wrapping_add(1);
            black_box(hash_u32(JOIN_SEED, v))
        })
    });
}

fn bench_page(c: &mut Harness) {
    let mut g = c.group("page");
    let rec = [7u8; 208];
    g.throughput_elems(38);
    g.bench("fill_8k_with_wisconsin_tuples", |b| {
        b.iter(|| {
            let mut p = Page::new(8192);
            while p.insert(black_box(&rec)).is_some() {}
            black_box(p.len())
        })
    });
    g.bench("iterate_full_page", |b| {
        let mut p = Page::new(8192);
        while p.insert(&rec).is_some() {}
        b.iter(|| {
            let mut n = 0usize;
            for r in p.records() {
                n += r.len();
            }
            black_box(n)
        })
    });
}

fn bench_heap(c: &mut Harness) {
    let mut g = c.group("heap");
    g.throughput_elems(10_000);
    g.bench("write_scan_10k_tuples", |b| {
        b.iter(|| {
            let mut vol = Volume::new();
            let mut pool = BufferPool::new(DiskConfig::fujitsu_8inch(), 8);
            let mut u = Usage::ZERO;
            let mut w = HeapWriter::create(&mut vol, 8192);
            let rec = [3u8; 208];
            for _ in 0..10_000 {
                w.push(&mut vol, &mut pool, &mut u, &rec);
            }
            let f = w.finish(&mut vol, &mut pool, &mut u);
            let got = HeapScan::open(&vol, f).collect_all(&mut pool, &mut u);
            black_box(got.len())
        })
    });
}

fn bench_hash_table(c: &mut Harness) {
    let mut g = c.group("join_hash_table");
    g.throughput_elems(10_000);
    g.bench("build_10k", |b| {
        b.iter(|| {
            let mut t = JoinHashTable::new(16 << 20, 208, 1);
            for v in 0..10_000u32 {
                let _ = t.offer(v, &[0u8; 208], 10);
            }
            black_box(t.len())
        })
    });
    g.bench("probe_10k", |b| {
        let mut t = JoinHashTable::new(16 << 20, 208, 1);
        for v in 0..10_000u32 {
            let _ = t.offer(v, &[0u8; 208], 10);
        }
        b.iter(|| {
            let mut hits = 0u64;
            for v in 0..10_000u32 {
                let (m, _) = t.probe(v * 3);
                hits += m.len() as u64;
            }
            black_box(hits)
        })
    });
    g.bench("build_with_overflow_clearing", |b| {
        b.iter(|| {
            let mut t = JoinHashTable::new(200_000, 208, 1);
            for v in 0..5_000u32 {
                let _ = t.offer(v, &[0u8; 208], 10);
            }
            black_box(t.clearings())
        })
    });
}

fn bench_bitfilter(c: &mut Harness) {
    let mut g = c.group("bitfilter");
    g.throughput_elems(100_000);
    g.bench("set_and_test_100k", |b| {
        b.iter(|| {
            let mut f = BitFilter::new(1973, 0);
            for v in 0..10_000u32 {
                f.set(v);
            }
            let mut passed = 0u64;
            for v in 0..100_000u32 {
                if f.test(v) {
                    passed += 1;
                }
            }
            black_box(passed)
        })
    });
}

fn bench_split_tables(c: &mut Harness) {
    let mut g = c.group("split_tables");
    let disks: Vec<usize> = (0..8).collect();
    let part = PartitioningSplitTable::grace(&disks, 10);
    let join = JoiningSplitTable::new(disks);
    g.throughput_elems(1);
    g.bench("partitioning_route", |b| {
        let mut h = 0u64;
        b.iter(|| {
            h = h.wrapping_add(0x9E3779B97F4A7C15);
            black_box(part.route(h))
        })
    });
    g.bench("joining_route", |b| {
        let mut h = 0u64;
        b.iter(|| {
            h = h.wrapping_add(0x9E3779B97F4A7C15);
            black_box(join.route(h))
        })
    });
}

fn bench_sort(c: &mut Harness) {
    let mut g = c.group("external_sort");
    g.sample_size(20);
    g.throughput_elems(20_000);
    g.bench("sort_20k_records_64k_memory", |b| {
        b.iter(|| {
            let mut vol = Volume::new();
            let mut pool = BufferPool::new(DiskConfig::fujitsu_8inch(), 8);
            let mut u = Usage::ZERO;
            let mut w = HeapWriter::create(&mut vol, 8192);
            for i in 0..20_000u32 {
                let k = i.wrapping_mul(2654435761);
                let mut rec = vec![0u8; 64];
                rec[0..4].copy_from_slice(&k.to_le_bytes());
                w.push(&mut vol, &mut pool, &mut u, &rec);
            }
            let input = w.finish(&mut vol, &mut pool, &mut u);
            let key = |r: &[u8]| u32::from_le_bytes(r[0..4].try_into().unwrap());
            let cfg = SortConfig {
                mem_bytes: 64 * 1024,
                page_bytes: 8192,
            };
            let (out, stats) = external_sort(
                &mut vol,
                &mut pool,
                input,
                &key,
                cfg,
                &SortCost::default(),
                &mut u,
            );
            black_box((out, stats.merge_passes))
        })
    });
}

fn bench_btree(c: &mut Harness) {
    let mut g = c.group("btree");
    g.throughput_elems(50_000);
    g.bench("insert_50k", |b| {
        b.iter(|| {
            let mut t = BPlusTree::new();
            for i in 0..50_000u64 {
                t.insert(i.wrapping_mul(0x9E3779B97F4A7C15) >> 16, i);
            }
            black_box(t.depth())
        })
    });
    g.bench("lookup_50k", |b| {
        let mut t = BPlusTree::new();
        for i in 0..50_000u64 {
            t.insert(i, i);
        }
        b.iter(|| {
            let mut found = 0u64;
            for i in (0..50_000u64).step_by(7) {
                if t.get(&i).is_some() {
                    found += 1;
                }
            }
            black_box(found)
        })
    });
}

fn bench_fabric(c: &mut Harness) {
    let mut g = c.group("fabric");
    g.throughput_elems(100_000);
    g.bench("route_100k_tuples", |b| {
        b.iter(|| {
            let mut f = Fabric::new(RingConfig::gamma_1989(), 16);
            let mut u = vec![Usage::ZERO; 16];
            for i in 0..100_000u64 {
                f.send_tuple(&mut u, (i % 8) as usize, (i % 16) as usize, 208);
            }
            f.flush(&mut u);
            black_box(u[0].counts.packets_sent)
        })
    });
}

fn main() {
    let mut c = Harness::from_args();
    bench_hash(&mut c);
    bench_page(&mut c);
    bench_heap(&mut c);
    bench_hash_table(&mut c);
    bench_bitfilter(&mut c);
    bench_split_tables(&mut c);
    bench_sort(&mut c);
    bench_btree(&mut c);
    bench_fabric(&mut c);
}
