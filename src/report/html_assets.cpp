#include "report/html_assets.h"

namespace so::report::assets {

// Design notes. The palette is the validated brand-neutral default:
// eight categorical slots (adjacent-pair CVD dE >= 8 in both modes),
// a blue sequential ramp for the heatmap, blue<->red diverging for the
// A/B view, and reserved status colors for verdicts. Phases wear
// categorical slots in order of first appearance (never cycled — the
// ninth phase folds into a neutral "other"); idle causes have their own
// fixed mapping so the same cause reads identically in every section.
// Marks are thin with 2px surface gaps; text always wears ink tokens,
// never a series color. Dark mode is its own stepped palette, selected
// via prefers-color-scheme, not an automatic flip.
const char kExplorerCss[] = R"SOCSS(
:root {
  color-scheme: light;
  --surface: #fcfcfb;
  --plane: #f9f9f7;
  --ink: #0b0b0b;
  --ink-2: #52514e;
  --muted: #898781;
  --grid: #e1e0d9;
  --axis: #c3c2b7;
  --border: rgba(11, 11, 11, 0.10);
  --series-1: #2a78d6;
  --series-2: #eb6834;
  --series-3: #1baf7a;
  --series-4: #eda100;
  --series-5: #e87ba4;
  --series-6: #008300;
  --series-7: #4a3aa7;
  --series-8: #e34948;
  --series-other: #a5a39c;
  --cause-dependency: #eda100;
  --cause-contention: #e34948;
  --cause-tail: #d6d5cd;
  --busy: #9ec5f4;
  --seq-lo: #cde2fb;
  --seq-hi: #0d366b;
  --div-neg: #2a78d6;
  --div-pos: #e34948;
  --status-good: #0ca30c;
  --status-bad: #d03b3b;
  --good-text: #006300;
  --bad-text: #b02a2a;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface: #1a1a19;
    --plane: #0d0d0d;
    --ink: #ffffff;
    --ink-2: #c3c2b7;
    --muted: #898781;
    --grid: #2c2c2a;
    --axis: #383835;
    --border: rgba(255, 255, 255, 0.10);
    --series-1: #3987e5;
    --series-2: #d95926;
    --series-3: #199e70;
    --series-4: #c98500;
    --series-5: #d55181;
    --series-6: #008300;
    --series-7: #9085e9;
    --series-8: #e66767;
    --series-other: #6b6a64;
    --cause-dependency: #c98500;
    --cause-contention: #e66767;
    --cause-tail: #383835;
    --busy: #1c5cab;
    --seq-lo: #10324f;
    --seq-hi: #9ec5f4;
    --div-neg: #3987e5;
    --div-pos: #e66767;
    --good-text: #0ca30c;
    --bad-text: #e66767;
  }
}
* { box-sizing: border-box; }
html { background: var(--plane); }
body {
  margin: 0 auto;
  padding: 24px 28px 64px;
  max-width: 1180px;
  background: var(--plane);
  color: var(--ink);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
header { margin-bottom: 8px; }
h1 { font-size: 21px; font-weight: 650; margin: 0 0 2px; }
.so-generator { color: var(--muted); font-size: 12px; margin: 0; }
section.so-section {
  background: var(--surface);
  border: 1px solid var(--border);
  border-radius: 10px;
  padding: 16px 18px 18px;
  margin: 16px 0;
}
section.so-section > h2 {
  font-size: 15px; font-weight: 650; margin: 0 0 2px;
}
.so-sub { color: var(--ink-2); font-size: 12.5px; margin: 0 0 12px; }
.so-note { color: var(--muted); font-size: 12px; margin: 8px 0 0; }
.so-error { color: var(--bad-text); font-size: 13px; }
.so-banner { border: 1px solid var(--grid);
  border-left: 4px solid var(--cause-contention);
  padding: 8px 12px; border-radius: 6px; font-size: 13px;
  margin: 8px 0; }
.so-binstrip { display: flex; height: 16px; border-radius: 4px;
  overflow: hidden; border: 1px solid var(--grid); flex: 1;
  background: var(--paper-2, transparent); }
.so-binstrip i { flex: 1 0 0; }
.so-shardload { display: flex; flex-wrap: wrap; gap: 8px;
  align-items: center; margin-top: 10px; font-size: 12.5px; }
.so-shardload input[type=number] { width: 90px; }

/* chips & legends */
.so-chips { display: flex; flex-wrap: wrap; gap: 6px 12px; margin-top: 10px; }
.so-chip { display: inline-flex; align-items: center; gap: 6px;
  color: var(--ink-2); font-size: 12px; }
.so-chip i { width: 10px; height: 10px; border-radius: 3px; display: inline-block; }
.so-chip.line i { height: 3px; border-radius: 2px; width: 14px; }

/* verdict / status chips: icon + label, never color alone */
.so-badge { display: inline-block; border-radius: 999px; padding: 1px 9px;
  font-size: 11.5px; font-weight: 600; border: 1px solid; }
.so-badge.good { color: var(--good-text); border-color: var(--status-good); }
.so-badge.bad { color: var(--bad-text); border-color: var(--status-bad); }

/* Gantt */
.so-gantt-scroll { overflow-x: auto; border: 1px solid var(--grid);
  border-radius: 8px; padding: 10px 12px 12px; }
.so-gantt { position: relative; min-width: 100%; }
.so-axis { position: relative; height: 18px; color: var(--muted);
  font-size: 11px; font-variant-numeric: tabular-nums; }
.so-axis span { position: absolute; transform: translateX(-50%); white-space: nowrap; }
.so-res { margin-top: 6px; }
.so-res-head { display: flex; justify-content: space-between; align-items: baseline;
  font-size: 12px; color: var(--ink-2); padding: 2px 0; }
.so-res-name { font-weight: 600; color: var(--ink); }
.so-res-util { font-variant-numeric: tabular-nums; color: var(--muted); }
.so-lanes { position: relative; background:
  repeating-linear-gradient(to bottom, transparent 0, transparent 21px,
    var(--grid) 21px, var(--grid) 22px); }
.so-task { position: absolute; height: 18px; margin-top: 2px;
  border-radius: 0 3px 3px 0; min-width: 2px; cursor: default; }
.so-task:hover { outline: 2px solid var(--ink); outline-offset: 0; z-index: 3; }
.so-task.crit { box-shadow: inset 0 0 0 1.5px var(--ink); }
.so-idle-strip { position: relative; height: 7px; margin-top: 2px;
  background: transparent; border-radius: 2px; overflow: hidden; }
.so-gap { position: absolute; top: 0; bottom: 0; min-width: 1px; }
.so-gap.dependency-wait { background: var(--cause-dependency); }
.so-gap.resource-contention { background: var(--cause-contention); }
.so-gap.tail { background: var(--cause-tail); }
.so-overlay { position: absolute; inset: 0; pointer-events: none; }
.so-power { margin-top: 12px; border: 1px solid var(--grid);
  border-radius: 8px; padding: 10px 12px 12px; }
.so-power canvas { display: block; width: 100%; }
.so-power .so-note { margin: 0 0 8px; }
.so-zoom { display: flex; align-items: center; gap: 8px; margin: 0 0 8px;
  color: var(--muted); font-size: 12px; }
.so-zoom input { width: 160px; accent-color: var(--series-1); }

/* stacked bars & strips */
.so-bar { display: flex; height: 20px; border-radius: 4px; overflow: hidden; }
.so-seg { height: 100%; margin-right: 2px; position: relative; min-width: 1px; }
.so-seg:last-child { margin-right: 0; }
.so-seg span { position: absolute; inset: 0; display: flex; align-items: center;
  justify-content: center; font-size: 11px; overflow: hidden; white-space: nowrap; }
.so-striprow { display: grid; grid-template-columns: 130px 1fr 90px;
  gap: 10px; align-items: center; margin-top: 6px; }
.so-striprow .name { font-size: 12.5px; color: var(--ink); text-align: right;
  overflow: hidden; text-overflow: ellipsis; white-space: nowrap; }
.so-striprow .val { font-size: 12px; color: var(--muted);
  font-variant-numeric: tabular-nums; }
.so-strip { display: flex; height: 14px; border-radius: 3px; }
.so-strip i { height: 100%; margin-right: 2px; min-width: 0; }
.so-strip i:last-child { margin-right: 0; }

/* tables */
table.so-table { border-collapse: collapse; font-size: 12.5px; width: 100%;
  margin-top: 8px; }
table.so-table th { text-align: left; color: var(--muted); font-weight: 600;
  border-bottom: 1px solid var(--axis); padding: 4px 10px 4px 0; }
table.so-table td { border-bottom: 1px solid var(--grid);
  padding: 3px 10px 3px 0; font-variant-numeric: tabular-nums; }
table.so-table td.num { text-align: right; }
table.so-table th.num { text-align: right; }
details.so-details { margin-top: 10px; }
details.so-details summary { cursor: pointer; color: var(--ink-2);
  font-size: 12.5px; }

/* heatmap */
.so-heat { overflow-x: auto; }
.so-heat table { border-collapse: separate; border-spacing: 2px;
  font-size: 12px; margin-top: 6px; }
.so-heat th { color: var(--ink-2); font-weight: 600; padding: 3px 6px;
  text-align: left; white-space: nowrap; }
.so-heat th.col { writing-mode: initial; font-weight: 500;
  color: var(--muted); }
.so-heat td.so-cell { min-width: 64px; padding: 5px 8px; text-align: right;
  border-radius: 4px; cursor: pointer;
  font-variant-numeric: tabular-nums; }
.so-heat td.so-cell:hover { outline: 2px solid var(--ink); }
.so-heat td.so-cell.oom { background: transparent;
  border: 1px dashed var(--axis); color: var(--muted); cursor: default; }
.so-scale { display: flex; align-items: center; gap: 8px; margin-top: 8px;
  color: var(--muted); font-size: 11.5px; }
.so-scale .ramp { width: 140px; height: 10px; border-radius: 3px;
  background: linear-gradient(to right, var(--seq-lo), var(--seq-hi)); }
.so-drill { margin-top: 12px; border-top: 1px solid var(--grid);
  padding-top: 10px; }

/* sparkline cards */
.so-cards { display: grid; grid-template-columns:
  repeat(auto-fill, minmax(230px, 1fr)); gap: 10px; margin-top: 10px; }
.so-card { border: 1px solid var(--grid); border-radius: 8px;
  padding: 10px 12px; }
.so-card .k { color: var(--ink-2); font-size: 11.5px; overflow: hidden;
  text-overflow: ellipsis; white-space: nowrap; }
.so-card .v { font-size: 19px; font-weight: 650; margin: 2px 0 4px; }
.so-card .d { font-size: 11.5px; color: var(--muted); }
.so-card .d.up { color: var(--good-text); }
.so-card .d.down { color: var(--bad-text); }
.so-card canvas { display: block; width: 100%; height: 44px; margin-top: 6px; }

/* diff view */
.so-diff-head { display: flex; gap: 24px; align-items: baseline;
  flex-wrap: wrap; margin-bottom: 10px; }
.so-diff-head .side { font-size: 13px; color: var(--ink-2); }
.so-diff-head .side b { color: var(--ink); }
.so-diff-head .delta { font-size: 26px; font-weight: 650;
  font-variant-numeric: initial; }
.so-diffrow { display: grid; grid-template-columns: 150px 1fr 110px;
  gap: 10px; align-items: center; margin-top: 5px; font-size: 12.5px; }
.so-diffrow .name { text-align: right; overflow: hidden;
  text-overflow: ellipsis; white-space: nowrap; }
.so-diffrow .val { color: var(--muted); font-variant-numeric: tabular-nums; }
.so-diffbar { position: relative; height: 14px; }
.so-diffbar .mid { position: absolute; left: 50%; top: -2px; bottom: -2px;
  width: 1px; background: var(--axis); }
.so-diffbar i { position: absolute; top: 0; bottom: 0; border-radius: 3px;
  min-width: 1px; }
.so-diffbar i.neg { background: var(--div-neg); right: 50%; }
.so-diffbar i.pos { background: var(--div-pos); left: 50%; }
.so-tag { color: var(--muted); font-size: 11px; border: 1px solid var(--grid);
  border-radius: 4px; padding: 0 5px; margin-left: 6px; }

/* tooltip */
.so-tip { position: fixed; z-index: 10; max-width: 360px;
  background: var(--surface); color: var(--ink);
  border: 1px solid var(--border); border-radius: 8px;
  box-shadow: 0 4px 16px rgba(0, 0, 0, 0.18);
  padding: 8px 11px; font-size: 12px; pointer-events: none; }
.so-tip .t { font-weight: 650; font-size: 12.5px; margin-bottom: 3px;
  overflow-wrap: anywhere; }
.so-tip .r { display: flex; justify-content: space-between; gap: 16px;
  color: var(--ink-2); }
.so-tip .r b { color: var(--ink); font-weight: 600;
  font-variant-numeric: tabular-nums; }
)SOCSS";

const char kExplorerJs[] = R"SOJS(
(function () {
  'use strict';

  var DATA = JSON.parse(document.getElementById('so-data').textContent);
  var app = document.getElementById('app');

  // ------------------------------------------------------- tiny helpers
  function el(tag, cls, text) {
    var e = document.createElement(tag);
    if (cls) e.className = cls;
    if (text !== undefined && text !== null) e.textContent = text;
    return e;
  }
  function cssVar(name) {
    return getComputedStyle(document.documentElement)
        .getPropertyValue(name).trim();
  }
  function fmtS(s) {
    if (s === undefined || s === null || !isFinite(s)) return '-';
    var a = Math.abs(s);
    if (a === 0) return '0 s';
    if (a < 1e-3) return (s * 1e6).toPrecision(3) + ' µs';
    if (a < 1) return (s * 1e3).toPrecision(3) + ' ms';
    return s.toPrecision(4) + ' s';
  }
  function fmtSigned(s) { return (s > 0 ? '+' : '') + fmtS(s); }
  function fmtW(w) {
    if (w === undefined || w === null || !isFinite(w)) return '-';
    if (Math.abs(w) >= 1000) return (w / 1000).toPrecision(3) + ' kW';
    return w.toPrecision(3) + ' W';
  }
  function fmtJ(j) {
    if (j === undefined || j === null || !isFinite(j)) return '-';
    var a = Math.abs(j);
    if (a === 0) return '0 J';
    if (a >= 1e6) return (j / 1e6).toPrecision(3) + ' MJ';
    if (a >= 1e3) return (j / 1e3).toPrecision(3) + ' kJ';
    if (a < 1e-3) return (j * 1e6).toPrecision(3) + ' µJ';
    if (a < 1) return (j * 1e3).toPrecision(3) + ' mJ';
    return j.toPrecision(4) + ' J';
  }
  function fmtJSigned(j) { return (j > 0 ? '+' : '') + fmtJ(j); }
  function fmtBytes(b) {
    if (b === undefined || b === null || !isFinite(b)) return '-';
    if (b === 0) return '0 B';
    var units = ['B', 'KiB', 'MiB', 'GiB', 'TiB'];
    var i = 0;
    while (Math.abs(b) >= 1024 && i < units.length - 1) {
      b /= 1024; i += 1;
    }
    return b.toPrecision(3) + ' ' + units[i];
  }
  function fmtNum(x) {
    if (x === undefined || x === null || !isFinite(x)) return '-';
    if (x !== 0 && (Math.abs(x) >= 1e6 || Math.abs(x) < 1e-4))
      return x.toExponential(3);
    var r = Math.round(x * 10000) / 10000;
    return String(r);
  }
  function section(title, sub) {
    var s = el('section', 'so-section');
    s.appendChild(el('h2', null, title));
    if (sub) s.appendChild(el('p', 'so-sub', sub));
    app.appendChild(s);
    return s;
  }

  // Phase identity: categorical slots in order of first appearance,
  // shared across every section so "fwd" is the same color everywhere.
  // Never cycled: phases past the 8 slots fold into the neutral swatch.
  var phaseSlot = {};
  var phaseCount = 0;
  function phaseColor(phase) {
    if (!(phase in phaseSlot))
      phaseSlot[phase] = phaseCount < 8 ? ++phaseCount : 0;
    var slot = phaseSlot[phase];
    return slot === 0 ? cssVar('--series-other')
                      : cssVar('--series-' + slot);
  }
  var CAUSES = [
    ['dependency-wait', '--cause-dependency', 'waiting on a dependency'],
    ['resource-contention', '--cause-contention', 'dependency queued elsewhere'],
    ['tail', '--cause-tail', 'no work left']
  ];
  // Idle causes are the only strings from the data island ever used as
  // CSS classes or variable names; anything unrecognized folds into the
  // neutral tail styling instead of being interpolated verbatim.
  var CAUSE_VAR = {};
  CAUSES.forEach(function (c) { CAUSE_VAR[c[0]] = c[1]; });
  function causeClass(cause) {
    return CAUSE_VAR[cause] ? cause : 'tail';
  }

  // One tooltip for the whole page; marks are their own hit targets.
  var tip = el('div', 'so-tip');
  tip.hidden = true;
  document.body.appendChild(tip);
  function tipShow(evt, title, rows) {
    tip.textContent = '';
    if (title) tip.appendChild(el('div', 't', title));
    (rows || []).forEach(function (row) {
      var r = el('div', 'r');
      r.appendChild(el('span', null, row[0]));
      r.appendChild(el('b', null, row[1]));
      tip.appendChild(r);
    });
    tip.hidden = false;
    tipMove(evt);
  }
  function tipMove(evt) {
    if (tip.hidden) return;
    var pad = 14;
    var w = tip.offsetWidth, h = tip.offsetHeight;
    var x = evt.clientX + pad, y = evt.clientY + pad;
    if (x + w > innerWidth - 8) x = evt.clientX - w - pad;
    if (y + h > innerHeight - 8) y = evt.clientY - h - pad;
    tip.style.left = Math.max(4, x) + 'px';
    tip.style.top = Math.max(4, y) + 'px';
  }
  function tipHide() { tip.hidden = true; }
  function hover(node, make) {
    node.addEventListener('pointerenter', function (evt) {
      var c = make();
      tipShow(evt, c[0], c[1]);
    });
    node.addEventListener('pointermove', tipMove);
    node.addEventListener('pointerleave', tipHide);
  }

  function phaseLegend(host, phases) {
    var chips = el('div', 'so-chips');
    phases.forEach(function (p) {
      var chip = el('span', 'so-chip');
      var sw = el('i');
      sw.style.background = phaseColor(p[0]);
      chip.appendChild(sw);
      chip.appendChild(document.createTextNode(
          p[1] === undefined ? p[0] : p[0] + ' · ' + fmtS(p[1])));
      chips.appendChild(chip);
    });
    host.appendChild(chips);
  }
  function causeLegend(host) {
    var chips = el('div', 'so-chips');
    CAUSES.forEach(function (c) {
      var chip = el('span', 'so-chip');
      var sw = el('i');
      sw.style.background = cssVar(c[1]);
      chip.appendChild(sw);
      chip.appendChild(document.createTextNode('idle: ' + c[0]));
      chips.appendChild(chip);
    });
    host.appendChild(chips);
  }

  function dataTable(host, summary, header, rows) {
    var details = el('details', 'so-details');
    details.appendChild(el('summary', null, summary));
    var table = el('table', 'so-table');
    var tr = el('tr');
    header.forEach(function (h) {
      tr.appendChild(el('th', typeof rows[0] !== 'undefined' ? null : null, h));
    });
    table.appendChild(tr);
    rows.forEach(function (row) {
      var r = el('tr');
      row.forEach(function (cell, i) {
        r.appendChild(el('td', i > 0 ? 'num' : null, String(cell)));
      });
      table.appendChild(r);
    });
    details.appendChild(table);
    host.appendChild(details);
  }

  // --------------------------------------------- LOD + shard drill-down
  // Binned occupancy/energy strips: the aggregate Gantt used when the
  // per-task arrays were elided (summary detail). One cell per bin,
  // intensity = the bin's busy (or energy) fraction.
  function binStrips(host, bins, unit, valueKey, fmtfn) {
    var resources = bins.resources || [];
    if (!resources.length || !(bins.bin_s > 0)) return;
    var strips = el('div');
    resources.forEach(function (r) {
      var row = el('div', 'so-striprow');
      row.appendChild(el('span', 'name', r.resource));
      var strip = el('div', 'so-binstrip');
      var values = r[valueKey] || [];
      var peak = 0;
      values.forEach(function (v) { peak = Math.max(peak, v); });
      var norm = unit === 'busy' ? bins.bin_s : peak;
      var total = 0;
      values.forEach(function (v, k) {
        total += v;
        var cell = el('i');
        cell.style.background = cssVar('--busy');
        cell.style.opacity =
            norm > 0 ? String(Math.min(1, v / norm)) : '0';
        hover(cell, function () {
          return [r.resource + ' · bin ' + k,
              [['window', fmtS(k * bins.bin_s) + ' – ' +
                    fmtS((k + 1) * bins.bin_s)],
               [unit, fmtfn(v)]]];
        });
        strip.appendChild(cell);
      });
      row.appendChild(strip);
      row.appendChild(el('span', 'val', fmtfn(total)));
      strips.appendChild(row);
    });
    host.appendChild(strips);
  }

  // Offline drill-down into a *.bundle.jsonl shard file: FileReader
  // only (nothing is fetched), bounded to SLICE_CAP spans of the
  // selected time window. Shard task lines are in per-resource
  // timeline order, so windowed slices stay cheap.
  var SLICE_CAP = 20000;
  var shardLoaderShown = false;
  function shardLoader(host) {
    if (shardLoaderShown) return;
    shardLoaderShown = true;
    var bar = el('div', 'so-shardload');
    bar.appendChild(el('span', null,
        'drill down: pick a local *.bundle.jsonl shard file and a ' +
        'time window'));
    var file = document.createElement('input');
    file.type = 'file';
    bar.appendChild(file);
    var b0 = document.createElement('input');
    b0.type = 'number'; b0.placeholder = 'begin s'; b0.step = 'any';
    bar.appendChild(b0);
    var b1 = document.createElement('input');
    b1.type = 'number'; b1.placeholder = 'end s'; b1.step = 'any';
    bar.appendChild(b1);
    var btn = document.createElement('button');
    btn.type = 'button';
    btn.textContent = 'load slice';
    bar.appendChild(btn);
    var status = el('span', 'so-note');
    bar.appendChild(status);
    host.appendChild(bar);
    var out = el('div');
    host.appendChild(out);

    btn.addEventListener('click', function () {
      if (!file.files || !file.files.length) {
        status.textContent = 'pick a *.bundle.jsonl file first';
        return;
      }
      var begin = parseFloat(b0.value);
      if (!isFinite(begin)) begin = 0;
      var end = parseFloat(b1.value);
      if (!isFinite(end)) end = Infinity;
      var reader = new FileReader();
      reader.onload = function () {
        out.textContent = '';
        var names = [];
        var tasks = [];
        var dropped = 0;
        String(reader.result).split('\n').forEach(function (line) {
          if (!line) return;
          var doc;
          try { doc = JSON.parse(line); } catch (err) { return; }
          if (doc.kind === 'bundle_shard_header') {
            (doc.resources || []).forEach(function (r, i) {
              names[i] = r.resource;
            });
          } else if (doc.kind === 'bundle_tasks') {
            (doc.tasks || []).forEach(function (t) {
              if (t.end_s <= begin || t.start_s >= end) return;
              if (tasks.length >= SLICE_CAP) { dropped += 1; return; }
              tasks.push(t);
            });
          }
        });
        if (!tasks.length) {
          status.textContent = 'no spans in the selected window';
          return;
        }
        status.textContent = tasks.length + ' span(s) loaded' +
            (dropped ? ' (' + dropped + ' beyond the ' + SLICE_CAP +
                       '-span slice cap dropped)'
                     : '');
        renderGantt({
          label: 'shard slice [' + fmtS(begin) + ', ' +
              (isFinite(end) ? fmtS(end) : 'end') + ')',
          tasks: tasks,
          edges: [],
          resources: names.map(function (n) {
            return { resource: n };
          })
        }, out);
      };
      reader.readAsText(file.files[0]);
    });
  }

  // ------------------------------------------------------------- Gantt
  function renderGantt(bundle, host) {
    if (bundle && bundle.kind === 'bundle_truncated') {
      var tsec = section('Schedule · (inline bundle elided)',
          'The per-task bundle outgrew the inline cap; aggregate ' +
          'views on this page stay exact.');
      var banner = el('div', 'so-banner');
      banner.appendChild(el('strong', null, 'truncated: '));
      banner.appendChild(document.createTextNode(
          fmtBytes(bundle.bytes) + ' of bundle JSON exceeds the ' +
          fmtBytes(bundle.limit) + ' inline cap. Per-task detail ' +
          'lives in the *.bundle.jsonl shards next to this report — ' +
          'aggregate them with `so-report query`, or load a bounded ' +
          'time-window slice below.'));
      tsec.appendChild(banner);
      shardLoader(tsec);
      return;
    }
    var label = bundle.label || 'schedule';
    var sec = section('Schedule · ' + label,
        'Interactive Gantt: one lane per resource slot, tasks colored ' +
        'by phase, critical path outlined in ink, idle strip colored ' +
        'by cause. Hover any task for its card.');
    // Drill-down slices render inside their loader, not appended to
    // the page end.
    if (host) host.appendChild(sec);
    var tasks = bundle.tasks || [];
    var makespan = bundle.makespan_s || 0;
    tasks.forEach(function (t) { makespan = Math.max(makespan, t.end_s); });
    if (!tasks.length || makespan <= 0) {
      sec.appendChild(el('p', 'so-error', 'empty schedule'));
      return;
    }
    var byId = {};
    tasks.forEach(function (t) { byId[t.id] = t; });
    var depsOf = {};
    (bundle.edges || []).forEach(function (e) {
      (depsOf[e[1]] = depsOf[e[1]] || []).push(e[0]);
    });

    // Zoom: widens the inner surface inside a scroll container.
    var zoom = el('div', 'so-zoom');
    zoom.appendChild(el('span', null, 'zoom'));
    var range = document.createElement('input');
    range.type = 'range';
    range.min = '1'; range.max = '12'; range.step = '0.5';
    range.value = '1';
    zoom.appendChild(range);
    var zv = el('span', null, '1×');
    zoom.appendChild(zv);
    sec.appendChild(zoom);

    var scroll = el('div', 'so-gantt-scroll');
    var gantt = el('div', 'so-gantt');
    scroll.appendChild(gantt);
    sec.appendChild(scroll);

    // Axis ticks on clean fractions of the makespan.
    var axis = el('div', 'so-axis');
    for (var i = 0; i <= 8; ++i) {
      var t = el('span', null, fmtS(makespan * i / 8));
      t.style.left = (100 * i / 8) + '%';
      axis.appendChild(t);
    }
    gantt.appendChild(axis);

    var resources = bundle.resources || [];
    var laneOf = {};
    tasks.forEach(function (t) {
      laneOf[t.resource] = Math.max(laneOf[t.resource] || 0, t.slot + 1);
    });
    var LANE = 22;
    var taskEls = {};
    var phaseSeconds = {};

    var count = resources.length;
    tasks.forEach(function (t) { count = Math.max(count, t.resource + 1); });
    for (var r = 0; r < count; ++r) {
      var meta = resources[r] || {};
      var block = el('div', 'so-res');
      var head = el('div', 'so-res-head');
      head.appendChild(el('span', 'so-res-name',
          meta.resource || ('resource ' + r)));
      if (meta.busy_s !== undefined)
        head.appendChild(el('span', 'so-res-util',
            (100 * meta.busy_s / makespan).toFixed(1) + '% busy'));
      block.appendChild(head);

      var lanes = el('div', 'so-lanes');
      lanes.style.height = ((laneOf[r] || 1) * LANE) + 'px';
      block.appendChild(lanes);

      var strip = el('div', 'so-idle-strip');
      (meta.gaps || []).forEach(function (gap) {
        var g = el('i', 'so-gap ' + causeClass(gap.cause));
        g.style.left = (100 * gap.begin_s / makespan) + '%';
        g.style.width =
            (100 * (gap.end_s - gap.begin_s) / makespan) + '%';
        hover(g, function () {
          var next = gap.next !== undefined && byId[gap.next]
              ? byId[gap.next].label : '(end of iteration)';
          return ['idle · ' + gap.cause, [
            ['from', fmtS(gap.begin_s)],
            ['to', fmtS(gap.end_s)],
            ['length', fmtS(gap.end_s - gap.begin_s)],
            ['unblocked by', next]
          ]];
        });
        strip.appendChild(g);
      });
      block.appendChild(strip);
      gantt.appendChild(block);

      tasks.forEach(function (t) {
        if (t.resource !== r) return;
        var div = el('div', 'so-task' + (t.critical ? ' crit' : ''));
        div.style.left = (100 * t.start_s / makespan) + '%';
        div.style.width =
            (100 * (t.end_s - t.start_s) / makespan) + '%';
        div.style.top = (t.slot * LANE) + 'px';
        div.style.background = phaseColor(t.phase);
        phaseSeconds[t.phase] =
            (phaseSeconds[t.phase] || 0) + (t.end_s - t.start_s);
        hover(div, function () {
          var deps = (depsOf[t.id] || []).map(function (d) {
            return byId[d] ? byId[d].label : ('#' + d);
          });
          var rows = [
            ['phase', t.phase],
            ['resource', (meta.resource || ('resource ' + r)) +
                ' / slot ' + t.slot],
            ['start', fmtS(t.start_s)],
            ['end', fmtS(t.end_s)],
            ['duration', fmtS(t.end_s - t.start_s)],
            ['slack', t.critical ? 'critical path' : fmtS(t.slack_s)]
          ];
          if (deps.length)
            rows.push(['after', deps.slice(0, 6).join(', ') +
                (deps.length > 6
                     ? ' (+' + (deps.length - 6) + ')' : '')]);
          return [t.label, rows];
        });
        taskEls[t.id] = div;
        lanes.appendChild(div);
      });
    }

    // Critical-path overlay: a hairline joining the chain's task
    // centers, drawn after layout and on every resize/zoom.
    var overlay = document.createElement('canvas');
    overlay.className = 'so-overlay';
    gantt.appendChild(overlay);
    function drawOverlay() {
      var rect = gantt.getBoundingClientRect();
      if (!rect.width) return;
      var dpr = devicePixelRatio || 1;
      overlay.width = Math.round(rect.width * dpr);
      overlay.height = Math.round(rect.height * dpr);
      var ctx = overlay.getContext('2d');
      ctx.scale(dpr, dpr);
      ctx.clearRect(0, 0, rect.width, rect.height);
      ctx.strokeStyle = cssVar('--ink');
      ctx.globalAlpha = 0.55;
      ctx.lineWidth = 1.5;
      ctx.setLineDash([]);
      ctx.beginPath();
      var first = true;
      (bundle.critical_path || []).forEach(function (id) {
        var node = taskEls[id];
        if (!node) return;
        var b = node.getBoundingClientRect();
        var x = b.left - rect.left + b.width / 2;
        var y = b.top - rect.top + b.height / 2;
        if (first) { ctx.moveTo(x, y); first = false; }
        else ctx.lineTo(x, y);
      });
      ctx.stroke();
    }
    range.addEventListener('input', function () {
      gantt.style.width = (100 * Number(range.value)) + '%';
      zv.textContent = Number(range.value) + '×';
      drawOverlay();
    });
    addEventListener('resize', drawOverlay);
    requestAnimationFrame(drawOverlay);

    // Power-over-time: stacked per-resource draw sampled across the
    // makespan. A busy sample wears the resource's series color at the
    // running task's average draw (per-byte toll amortized in); an
    // idle sample wears the idle-cause color at the resource's idle
    // floor. Only rendered for energy-enabled bundles (schema v2+).
    var metered = resources.some(function (m) {
      return m && m.busy_w !== undefined;
    });
    if (metered) {
      var pwr = el('div', 'so-power');
      pwr.appendChild(el('p', 'so-note',
          'power draw over time · busy colored per resource, idle ' +
          'colored by cause'));
      var pcv = document.createElement('canvas');
      pwr.appendChild(pcv);
      sec.appendChild(pwr);
      var tasksOf = {};
      tasks.forEach(function (t) {
        (tasksOf[t.resource] = tasksOf[t.resource] || []).push(t);
      });
      function seriesOf(r2) {
        return cssVar('--series-' + ((r2 % 8) + 1));
      }
      function causeAt(meta2, tm) {
        var gaps = meta2.gaps || [];
        for (var gi = 0; gi < gaps.length; ++gi)
          if (gaps[gi].begin_s <= tm && tm < gaps[gi].end_s)
            return causeClass(gaps[gi].cause);
        return 'tail';
      }
      var powerCols = [], powerPeak = 0, powerN = 0;
      function samplePower(N) {
        powerCols = []; powerPeak = 0; powerN = N;
        for (var ci = 0; ci < N; ++ci) {
          var tm = makespan * (ci + 0.5) / N;
          var stack = [], totW = 0;
          for (var ri = 0; ri < count; ++ri) {
            var m2 = resources[ri] || {};
            var running = null;
            var list = tasksOf[ri] || [];
            for (var ti = 0; ti < list.length; ++ti)
              if (list[ti].start_s <= tm && tm < list[ti].end_s) {
                running = list[ti];
                break;
              }
            var wv, colr;
            if (running) {
              wv = running.power_w !== undefined
                  ? running.power_w : (m2.busy_w || 0);
              colr = seriesOf(ri);
            } else {
              wv = m2.idle_w || 0;
              colr = cssVar(CAUSE_VAR[causeAt(m2, tm)]);
            }
            if (wv > 0) stack.push([wv, colr]);
            totW += wv;
          }
          powerCols.push([totW, stack]);
          powerPeak = Math.max(powerPeak, totW);
        }
      }
      function drawPower() {
        var W = pwr.clientWidth || 600, H = 120;
        var dpr = devicePixelRatio || 1;
        pcv.width = Math.round(W * dpr);
        pcv.height = Math.round(H * dpr);
        pcv.style.height = H + 'px';
        var ctx = pcv.getContext('2d');
        ctx.scale(dpr, dpr);
        var N = Math.max(64, Math.min(512, Math.floor(W / 2)));
        samplePower(N);
        if (powerPeak <= 0) return;
        var cw = W / N;
        for (var ci = 0; ci < N; ++ci) {
          var y = H;
          powerCols[ci][1].forEach(function (segm) {
            var hgt = H * segm[0] / powerPeak;
            ctx.fillStyle = segm[1];
            ctx.fillRect(ci * cw, y - hgt, cw + 0.5, hgt);
            y -= hgt;
          });
        }
        ctx.strokeStyle = cssVar('--axis');
        ctx.strokeRect(0.5, 0.5, W - 1, H - 1);
      }
      pcv.addEventListener('pointermove', function (evt) {
        if (!powerN || !powerCols.length) return;
        var rect = pcv.getBoundingClientRect();
        var ci = Math.min(powerN - 1, Math.max(0, Math.floor(
            powerN * (evt.clientX - rect.left) / rect.width)));
        var rows = [
          ['time', fmtS(makespan * (ci + 0.5) / powerN)],
          ['total draw', fmtW(powerCols[ci][0])],
          ['peak', fmtW(powerPeak)]
        ];
        tipShow(evt, 'power', rows);
      });
      pcv.addEventListener('pointerleave', tipHide);
      addEventListener('resize', drawPower);
      requestAnimationFrame(drawPower);
      var pchips = el('div', 'so-chips');
      for (var pr = 0; pr < count; ++pr) {
        var m3 = resources[pr] || {};
        var chip = el('span', 'so-chip');
        var sw2 = el('i');
        sw2.style.background = seriesOf(pr);
        chip.appendChild(sw2);
        chip.appendChild(document.createTextNode(
            (m3.resource || ('resource ' + pr)) +
            (m3.busy_w !== undefined
                 ? ' · ' + fmtW(m3.busy_w) + ' busy' : '')));
        pchips.appendChild(chip);
      }
      pwr.appendChild(pchips);
    }

    var phases = Object.keys(phaseSeconds).map(function (p) {
      return [p, phaseSeconds[p]];
    }).sort(function (a, b) { return b[1] - a[1]; });
    phaseLegend(sec, phases);
    causeLegend(sec);
    sec.appendChild(el('p', 'so-note',
        'makespan ' + fmtS(makespan) + ' · ' + tasks.length +
        ' tasks · ' + (bundle.edges || []).length + ' edges · ' +
        (bundle.critical_path || []).length +
        ' tasks on the critical path' +
        (bundle.total_j
             ? ' · ' + fmtJ(bundle.total_j) + ' (' +
                   fmtW(bundle.avg_w) + ' avg)'
             : '')));
    dataTable(sec, 'task table', ['task', 'phase', 'resource', 'slot',
        'start', 'end', 'duration', 'slack', 'critical'],
        tasks.map(function (t) {
          return [t.label, t.phase,
              (resources[t.resource] || {}).resource || t.resource,
              t.slot, fmtS(t.start_s), fmtS(t.end_s),
              fmtS(t.end_s - t.start_s),
              fmtS(t.slack_s), t.critical ? 'yes' : ''];
        }));
  }

  // --------------------------------------------------- profile section
  function stackedBar(host, parts, total, colorOf, fmt) {
    // parts: [name, seconds]; 2px surface gaps between segments.
    // fmt switches the tooltip unit (default seconds; fmtJ = joules).
    var f = fmt || fmtS;
    var unit = fmt === fmtJ ? 'joules' : 'seconds';
    var bar = el('div', 'so-bar');
    parts.forEach(function (p) {
      if (p[1] <= 0) return;
      var seg = el('div', 'so-seg');
      seg.style.background = colorOf(p[0]);
      seg.style.flexGrow = String(p[1]);
      hover(seg, function () {
        return [p[0], [[unit, f(p[1])],
            ['share', total > 0
                 ? (100 * p[1] / total).toFixed(1) + '%' : '-']]];
      });
      bar.appendChild(seg);
    });
    host.appendChild(bar);
  }

  function renderProfile(label, doc) {
    var sec = section('Phase breakdown · ' + label,
        'Critical-path seconds per phase (the chain that determines ' +
        'the makespan) and each resource’s busy/idle split by ' +
        'cause — the Fig. 4 analogue.');
    if (doc.detail === 'summary') {
      var sb = el('div', 'so-banner');
      sb.appendChild(el('strong', null, 'summary detail: '));
      sb.appendChild(document.createTextNode(
          'per-task arrays were elided for this ' +
          fmtNum(doc.task_count) + '-task profile. Phase rollups, ' +
          'binned histograms, and top-K lists below are exact; ' +
          'per-task drill-down goes through the *.bundle.jsonl ' +
          'shards (so-report query, or the slice loader).'));
      sec.appendChild(sb);
      shardLoader(sec);
    }
    var cp = doc.critical_path || {};
    var phases = (cp.phases || []).map(function (p) {
      return [p.phase, p.seconds];
    });
    var total = cp.length_s || 0;
    if (phases.length) {
      stackedBar(sec, phases, total, phaseColor);
      phaseLegend(sec, phases);
    }
    if (doc.phase_busy && doc.phase_busy.length) {
      sec.appendChild(el('p', 'so-note',
          'busy seconds per phase across every resource (exact at ' +
          'any detail level):'));
      stackedBar(sec, doc.phase_busy.map(function (p) {
        return [p.phase, p.seconds];
      }), doc.phase_busy.reduce(function (a, p) {
        return a + p.seconds;
      }, 0), phaseColor);
    }
    if (doc.bins && doc.bins.resources) {
      sec.appendChild(el('p', 'so-note',
          'occupancy histogram: ' + doc.bins.count +
          ' bins of ' + fmtS(doc.bins.bin_s) +
          ' — busy seconds per bin (the aggregate Gantt; bin sums ' +
          'equal the exact per-resource busy totals).'));
      binStrips(sec, doc.bins, 'busy', 'busy_s', fmtS);
    }
    var resources = doc.resources || [];
    if (resources.length) {
      var strips = el('div');
      resources.forEach(function (r) {
        var row = el('div', 'so-striprow');
        row.appendChild(el('span', 'name', r.resource));
        var strip = el('div', 'so-strip');
        var makespan = doc.makespan_s ||
            (r.busy_s + r.idle_s) || 1;
        [['busy', r.busy_s, '--busy'],
         ['idle: dependency-wait', r.idle_dependency_s,
          '--cause-dependency'],
         ['idle: resource-contention', r.idle_contention_s,
          '--cause-contention'],
         ['idle: tail', r.idle_tail_s, '--cause-tail']]
            .forEach(function (part) {
          if (!(part[1] > 0)) return;
          var seg = el('i');
          seg.style.background = cssVar(part[2]);
          seg.style.flexGrow = String(part[1]);
          hover(seg, function () {
            return [r.resource + ' · ' + part[0],
                [['seconds', fmtS(part[1])],
                 ['share of makespan', makespan > 0
                      ? (100 * part[1] / makespan).toFixed(1) + '%'
                      : '-']]];
          });
          strip.appendChild(seg);
        });
        row.appendChild(strip);
        row.appendChild(el('span', 'val', makespan > 0
            ? (100 * r.busy_s / makespan).toFixed(1) + '% busy' : '-'));
        strips.appendChild(row);
      });
      sec.appendChild(strips);
      var chips = el('div', 'so-chips');
      var busyChip = el('span', 'so-chip');
      var sw = el('i');
      sw.style.background = cssVar('--busy');
      busyChip.appendChild(sw);
      busyChip.appendChild(document.createTextNode('busy'));
      chips.appendChild(busyChip);
      sec.appendChild(chips);
      causeLegend(sec);
    }
    var energy = doc.energy || null;
    if (energy && energy.phases && energy.phases.length) {
      sec.appendChild(el('p', 'so-note',
          'task joules per phase · total ' + fmtJ(energy.total_j) +
          ' · avg ' + fmtW(energy.avg_w) + ' · idle ' +
          fmtJ(energy.idle_j)));
      stackedBar(sec, energy.phases.map(function (p) {
        return [p.phase, p.joules];
      }), energy.active_j || 0, phaseColor, fmtJ);
    }
    if (energy && energy.bins && energy.bins.resources) {
      sec.appendChild(el('p', 'so-note',
          'energy histogram: task joules per ' +
          fmtS(energy.bins.bin_s) + ' bin.'));
      binStrips(sec, energy.bins, 'joules', 'joules', fmtJ);
    }
    if (doc.zero_slack_tasks && doc.zero_slack_tasks.length)
      dataTable(sec, 'longest zero-slack tasks',
          ['task', 'resource', 'duration'],
          doc.zero_slack_tasks.map(function (t) {
            return [t.label, t.resource, fmtS(t.duration_s)];
          }));
    if (doc.top_slack_tasks && doc.top_slack_tasks.length)
      dataTable(sec, 'top slack tasks',
          ['task', 'resource', 'slack'],
          doc.top_slack_tasks.map(function (t) {
            return [t.label, t.resource, fmtS(t.slack_s)];
          }));
    if (energy && energy.top_tasks && energy.top_tasks.length)
      dataTable(sec, 'top energy tasks',
          ['task', 'resource', 'joules'],
          energy.top_tasks.map(function (t) {
            return [t.label, t.resource, fmtJ(t.joules)];
          }));
    if (energy && energy.top_bytes && energy.top_bytes.length)
      dataTable(sec, 'top transfer tasks',
          ['task', 'resource', 'bytes'],
          energy.top_bytes.map(function (t) {
            return [t.label, t.resource, fmtBytes(t.bytes)];
          }));
  }

  // ------------------------------------------------- records & heatmap
  function flatten(doc, prefix, out) {
    if (typeof doc === 'number') { out.push([prefix, doc]); return; }
    if (Array.isArray(doc)) {
      doc.forEach(function (item, i) {
        flatten(item, prefix + '[' + i + ']', out);
      });
      return;
    }
    if (doc && typeof doc === 'object') {
      Object.keys(doc).forEach(function (key) {
        // Mirror the regression guard: wall-clock metrics snapshots
        // and the meta subtree are not comparable surfaces.
        if (key === 'metrics' || key === 'meta') return;
        flatten(doc[key], prefix ? prefix + '.' + key : key, out);
      });
    }
  }

  function mixColor(a, b, t) {
    function hex(c) {
      var m = c.replace('#', '');
      return [parseInt(m.substr(0, 2), 16), parseInt(m.substr(2, 2), 16),
              parseInt(m.substr(4, 2), 16)];
    }
    var x = hex(a), y = hex(b);
    var rgb = x.map(function (v, i) {
      return Math.round(v + (y[i] - v) * t);
    });
    return 'rgb(' + rgb.join(',') + ')';
  }
  function luminance(rgb) {
    var m = /rgb\((\d+),(\d+),(\d+)\)/.exec(rgb);
    return m ? (0.2126 * m[1] + 0.7152 * m[2] + 0.0722 * m[3]) / 255
             : 0.5;
  }

  function cellColumnKey(cell) {
    if (cell.tag) return cell.tag;
    var s = cell.setup || {};
    return (s.model || '?') + ' · b' + (s.global_batch || '?') +
        ' · seq ' + (s.seq || '?') + ' · ×' +
        (s.superchips || '?');
  }

  function renderCellsRecord(label, doc) {
    var cells = doc.cells || [];
    var sec = section('Sweep · ' + label,
        'Effective TFLOPS per GPU over the system × setup grid ' +
        '(sequential ramp, darker = faster). Click a cell for its ' +
        'full record.');
    var systems = [], cols = [], grid = {};
    cells.forEach(function (cell) {
      var sys = cell.system || '?';
      var col = cellColumnKey(cell);
      if (systems.indexOf(sys) < 0) systems.push(sys);
      if (cols.indexOf(col) < 0) cols.push(col);
      grid[sys + '\u001f' + col] = cell;
    });
    var lo = Infinity, hi = -Infinity;
    cells.forEach(function (cell) {
      var res = cell.result || {};
      if (res.feasible && isFinite(res.tflops_per_gpu)) {
        lo = Math.min(lo, res.tflops_per_gpu);
        hi = Math.max(hi, res.tflops_per_gpu);
      }
    });
    var heat = el('div', 'so-heat');
    var table = el('table');
    var head = el('tr');
    head.appendChild(el('th'));
    cols.forEach(function (c) {
      head.appendChild(el('th', 'col', c));
    });
    table.appendChild(head);
    var drill = el('div', 'so-drill');
    drill.hidden = true;
    systems.forEach(function (sys) {
      var row = el('tr');
      row.appendChild(el('th', null, sys));
      cols.forEach(function (col) {
        var cell = grid[sys + '\u001f' + col];
        var td;
        if (!cell || !cell.result) {
          td = el('td', 'so-cell oom', '·');
        } else if (!cell.result.feasible) {
          td = el('td', 'so-cell oom', 'OOM');
          hover(td, function () {
            return [sys + ' · ' + col,
                [['status', cell.result.infeasible_reason ||
                     'infeasible']]];
          });
        } else {
          var v = cell.result.tflops_per_gpu;
          var t = hi > lo ? (v - lo) / (hi - lo) : 0.5;
          var bg = mixColor(cssVar('--seq-lo'), cssVar('--seq-hi'), t);
          td = el('td', 'so-cell', v.toFixed(1));
          td.style.background = bg;
          // Ink picked by the fill's own luminance so the value
          // always clears contrast inside the cell.
          td.style.color = luminance(bg) > 0.45 ? '#0b0b0b' : '#ffffff';
          hover(td, function () {
            var rows = [
              ['TFLOPS/GPU', v.toFixed(2)],
              ['iter time', fmtS(cell.result.iter_time_s)],
              ['GPU util', (100 * (cell.result.gpu_utilization || 0))
                   .toFixed(1) + '%']
            ];
            var energy = cell.result.energy;
            if (energy && energy.iter_j !== undefined)
              rows.push(['energy', fmtJ(energy.iter_j) + '/iter · ' +
                  fmtW(energy.avg_w) + ' avg']);
            return [sys + ' · ' + col, rows];
          });
          td.addEventListener('click', function () {
            renderDrill(drill, sys + ' · ' + col, cell);
          });
        }
        row.appendChild(td);
      });
      table.appendChild(row);
    });
    heat.appendChild(table);
    sec.appendChild(heat);
    if (isFinite(lo)) {
      var scale = el('div', 'so-scale');
      scale.appendChild(el('span', null, lo.toFixed(1)));
      scale.appendChild(el('span', 'ramp'));
      scale.appendChild(el('span', null, hi.toFixed(1)));
      scale.appendChild(el('span', null, 'TFLOPS per GPU'));
      sec.appendChild(scale);
    }
    sec.appendChild(drill);
    dataTable(sec, 'cell table',
        ['system', 'setup', 'TFLOPS/GPU', 'iter time', 'GPU util',
         'J/iter'],
        cells.map(function (cell) {
          var res = cell.result || {};
          return [cell.system || '?', cellColumnKey(cell),
              res.feasible ? res.tflops_per_gpu.toFixed(2) : 'OOM',
              res.feasible ? fmtS(res.iter_time_s) : '-',
              res.feasible
                  ? (100 * (res.gpu_utilization || 0)).toFixed(1) + '%'
                  : '-',
              res.feasible && res.energy
                  ? fmtJ(res.energy.iter_j) : '-'];
        }));
  }

  function renderDrill(drill, title, cell) {
    drill.hidden = false;
    drill.textContent = '';
    drill.appendChild(el('h2', null, title));
    var res = cell.result || {};
    var flat = [];
    flatten(res, '', flat);
    var table = el('table', 'so-table');
    var head = el('tr');
    head.appendChild(el('th', null, 'metric'));
    head.appendChild(el('th', 'num', 'value'));
    table.appendChild(head);
    flat.slice(0, 48).forEach(function (kv) {
      var row = el('tr');
      row.appendChild(el('td', null, kv[0]));
      row.appendChild(el('td', 'num', fmtNum(kv[1])));
      table.appendChild(row);
    });
    drill.appendChild(table);
    var profile = res.profile || {};
    if (profile.critical_phases && profile.critical_phases.length) {
      drill.appendChild(el('p', 'so-note', 'critical-path phases'));
      stackedBar(drill, profile.critical_phases.map(function (p) {
        return [p.phase, p.seconds];
      }), profile.critical_length_s || 0, phaseColor);
    }
    var energy = res.energy || {};
    if (energy.phases && energy.phases.length) {
      drill.appendChild(el('p', 'so-note', 'task joules per phase · ' +
          fmtJ(energy.iter_j) + '/iter · ' + fmtW(energy.avg_w) +
          ' avg'));
      stackedBar(drill, energy.phases.map(function (p) {
        return [p.phase, p.joules];
      }), energy.active_j || 0, phaseColor, fmtJ);
    }
    renderTiers(drill, res);
  }

  // Per-tier occupancy strips (demand vs capacity) plus per-path
  // traffic strips: the memory-hierarchy view of one result.
  function renderTiers(host, res) {
    var tiers = (res.memory || {}).tiers || [];
    if (tiers.length) {
      host.appendChild(el('p', 'so-note', 'memory-tier occupancy'));
      tiers.forEach(function (t) {
        var row = el('div', 'so-striprow');
        row.appendChild(el('span', 'name', t.tier));
        var strip = el('div', 'so-strip');
        var used = el('i');
        used.style.background = cssVar('--busy');
        used.style.flexGrow = String(t.bytes || 0);
        hover(used, function () {
          return [t.tier + ' · ' + (t.description || ''),
              [['demand', fmtBytes(t.bytes)],
               ['capacity', fmtBytes(t.capacity)]]];
        });
        strip.appendChild(used);
        var free = (t.capacity || 0) - (t.bytes || 0);
        if (free > 0) {
          var rest = el('i');
          rest.style.background = cssVar('--surface');
          rest.style.flexGrow = String(free);
          strip.appendChild(rest);
        }
        row.appendChild(strip);
        var pct = t.capacity > 0
            ? (100 * t.bytes / t.capacity).toFixed(1) + '%' : '-';
        row.appendChild(el('span', 'val',
            fmtBytes(t.bytes) + ' · ' + pct));
        host.appendChild(row);
      });
    }
    var traffic = res.tier_traffic || [];
    var moved = traffic.filter(function (t) { return t.bytes > 0; });
    if (moved.length) {
      host.appendChild(el('p', 'so-note', 'inter-tier traffic'));
      var peak = Math.max.apply(null, moved.map(function (t) {
        return t.bytes;
      }));
      moved.forEach(function (t) {
        var row = el('div', 'so-striprow');
        row.appendChild(el('span', 'name',
            t.from + '→' + t.to));
        var strip = el('div', 'so-strip');
        var seg = el('i');
        seg.style.background = cssVar('--series-1');
        seg.style.flexGrow = String(t.bytes);
        hover(seg, function () {
          return [t.from + '→' + t.to + ' [' + t.channel + ']',
              [['bytes', fmtBytes(t.bytes)]]];
        });
        strip.appendChild(seg);
        if (peak > t.bytes) {
          var pad = el('i');
          pad.style.background = cssVar('--surface');
          pad.style.flexGrow = String(peak - t.bytes);
          strip.appendChild(pad);
        }
        row.appendChild(strip);
        row.appendChild(el('span', 'val', fmtBytes(t.bytes)));
        host.appendChild(row);
      });
    }
  }

  function renderGenericRecord(label, doc) {
    var flat = [];
    flatten(doc, '', flat);
    if (!flat.length) return;
    var sec = section('Record · ' + label,
        'Flattened numeric surface of the record — the same ' +
        'leaves the regression guard compares.');
    var table = el('table', 'so-table');
    var head = el('tr');
    head.appendChild(el('th', null, 'metric'));
    head.appendChild(el('th', 'num', 'value'));
    table.appendChild(head);
    var shown = flat.slice(0, 80);
    shown.forEach(function (kv) {
      var row = el('tr');
      row.appendChild(el('td', null, kv[0]));
      row.appendChild(el('td', 'num', fmtNum(kv[1])));
      table.appendChild(row);
    });
    sec.appendChild(table);
    if (flat.length > shown.length)
      sec.appendChild(el('p', 'so-note',
          (flat.length - shown.length) + ' more leaves omitted'));
  }

  // --------------------------------------------------- bench history
  function sparkline(canvas, series) {
    var dpr = devicePixelRatio || 1;
    var w = canvas.clientWidth || 220, h = 44;
    canvas.width = Math.round(w * dpr);
    canvas.height = Math.round(h * dpr);
    var ctx = canvas.getContext('2d');
    ctx.scale(dpr, dpr);
    var xs = series.filter(function (v) { return v !== null; });
    if (!xs.length) return;
    var lo = Math.min.apply(null, xs), hi = Math.max.apply(null, xs);
    if (hi === lo) { hi += 1; lo -= 1; }
    var pad = 6;
    function x(i) {
      return series.length > 1
          ? pad + (w - 2 * pad) * i / (series.length - 1) : w / 2;
    }
    function y(v) {
      return h - pad - (h - 2 * pad) * (v - lo) / (hi - lo);
    }
    ctx.strokeStyle = cssVar('--series-1');
    ctx.lineWidth = 2;
    ctx.lineJoin = 'round';
    ctx.lineCap = 'round';
    ctx.beginPath();
    var started = false;
    series.forEach(function (v, i) {
      if (v === null) return;
      if (!started) { ctx.moveTo(x(i), y(v)); started = true; }
      else ctx.lineTo(x(i), y(v));
    });
    ctx.stroke();
    // End marker with a surface ring so it reads over the line.
    var last = series.length - 1;
    while (last >= 0 && series[last] === null) --last;
    if (last >= 0) {
      ctx.fillStyle = cssVar('--surface');
      ctx.beginPath();
      ctx.arc(x(last), y(series[last]), 6, 0, 2 * Math.PI);
      ctx.fill();
      ctx.fillStyle = cssVar('--series-1');
      ctx.beginPath();
      ctx.arc(x(last), y(series[last]), 4, 0, 2 * Math.PI);
      ctx.fill();
    }
  }

  function gatedDirection(path) {
    // Mirror of report::metricDirection (history.cpp): joules are a
    // cost, watts are a rate and stay ungated (docs/ENERGY.md).
    if (/_per_s$/.test(path)) return 1;
    if (/(_j|_j_per_iter|_j_per_token)$/.test(path)) return -1;
    if (/_w$/.test(path)) return 0;
    if (/(_s|_s_mean|_ms)$/.test(path)) return -1;
    return 0;
  }

  function renderHistory(history, verdict) {
    if (!history.length) return;
    var sec = section('Bench history',
        history.length + ' record(s) from BENCH_history.jsonl — ' +
        'one sparkline per gated metric, latest value leading.' +
        (verdict ? ' Badges carry the regression-guard verdict for ' +
         'the freshest record.' : ''));
    if (verdict) {
      var head = el('p', 'so-sub');
      var badge = el('span',
          'so-badge ' + (verdict.pass ? 'good' : 'bad'),
          (verdict.pass ? '✓ pass' : '✗ regressed'));
      head.appendChild(badge);
      head.appendChild(document.createTextNode(
          ' ' + (verdict.gated || 0) + ' gated metric(s), tolerance ±' +
          (100 * (verdict.tolerance || 0)).toFixed(0) + '%' +
          (verdict.pass ? ''
              : ', regressed: ' +
                  (verdict.regressions || []).join(', '))));
      sec.appendChild(head);
    }
    var flats = history.map(function (rec) {
      var out = [];
      flatten(rec, '', out);
      var map = {};
      out.forEach(function (kv) { map[kv[0]] = kv[1]; });
      return map;
    });
    var lastFlat = flats[flats.length - 1];
    var paths = Object.keys(lastFlat).filter(function (p) {
      return gatedDirection(p) !== 0;
    });
    var verdictByPath = {};
    ((verdict && verdict.metrics) || []).forEach(function (m) {
      verdictByPath[m.path] = m;
    });
    var cards = el('div', 'so-cards');
    paths.slice(0, 36).forEach(function (path) {
      var card = el('div', 'so-card');
      card.appendChild(el('div', 'k', path));
      card.appendChild(el('div', 'v', fmtNum(lastFlat[path])));
      var delta = el('div', 'd');
      var m = verdictByPath[path];
      if (m && !m.missing) {
        var dir = gatedDirection(path);
        var good = dir * m.rel_change >= 0;
        delta.className = 'd ' + (m.regressed ? 'down'
            : good ? 'up' : '');
        delta.textContent =
            (m.rel_change >= 0 ? '+' : '') +
            (100 * m.rel_change).toFixed(1) + '% vs baseline' +
            (m.regressed ? ' — REGRESSED' : '');
      } else if (flats.length > 1) {
        var prev = flats[flats.length - 2][path];
        if (prev !== undefined && prev !== 0) {
          var rel = (lastFlat[path] - prev) / Math.abs(prev);
          delta.textContent = (rel >= 0 ? '+' : '') +
              (100 * rel).toFixed(1) + '% vs previous record';
        }
      }
      card.appendChild(delta);
      var canvas = document.createElement('canvas');
      card.appendChild(canvas);
      hover(card, function () {
        return [path, flats.map(function (f, i) {
          return ['record ' + (i + 1),
              f[path] === undefined ? '-' : fmtNum(f[path])];
        }).slice(-8)];
      });
      cards.appendChild(card);
      requestAnimationFrame(function () {
        sparkline(canvas, flats.map(function (f) {
          return f[path] === undefined ? null : f[path];
        }));
      });
    });
    sec.appendChild(cards);
    if (paths.length > 36)
      sec.appendChild(el('p', 'so-note',
          (paths.length - 36) + ' more metrics omitted'));
    dataTable(sec, 'history table',
        ['metric'].concat(history.map(function (rec, i) {
          return 'record ' + (i + 1);
        })),
        paths.map(function (path) {
          return [path].concat(flats.map(function (f) {
            return f[path] === undefined ? '-' : fmtNum(f[path]);
          }));
        }));
  }

  // ------------------------------------------------------- A/B diff
  function renderDiff(doc) {
    var before = doc.before || {}, after = doc.after || {};
    var sec = section('A/B · ' +
        (before.label || 'before') + ' vs ' + (after.label || 'after'),
        'Phase-matched attribution of the makespan delta: each bar is ' +
        'one phase’s signed contribution (left/blue = faster ' +
        'after, right/red = slower after). Contributions plus the ' +
        'residual sum exactly to the delta.');
    var head = el('div', 'so-diff-head');
    var delta = doc.makespan_delta_s || 0;
    var d = el('span', 'delta', fmtSigned(delta));
    d.style.color = cssVar(delta <= 0 ? '--good-text' : '--bad-text');
    head.appendChild(d);
    var sideB = el('span', 'side');
    sideB.appendChild(el('b', null, before.label || 'before'));
    sideB.appendChild(document.createTextNode(
        ' ' + fmtS(before.makespan_s)));
    var sideA = el('span', 'side');
    sideA.appendChild(el('b', null, after.label || 'after'));
    sideA.appendChild(document.createTextNode(
        ' ' + fmtS(after.makespan_s)));
    head.appendChild(sideB);
    head.appendChild(sideA);
    sec.appendChild(head);

    var phases = doc.phases || [];
    var max = 0;
    phases.forEach(function (p) {
      max = Math.max(max, Math.abs(p.delta_s));
    });
    if (doc.unattributed_s)
      max = Math.max(max, Math.abs(doc.unattributed_s));
    function row(name, value, tag, maxv, fmtfn) {
      maxv = maxv === undefined ? max : maxv;
      fmtfn = fmtfn || fmtSigned;
      var r = el('div', 'so-diffrow');
      var n = el('span', 'name', name);
      if (tag) n.appendChild(el('span', 'so-tag', tag));
      r.appendChild(n);
      var bar = el('div', 'so-diffbar');
      bar.appendChild(el('i', 'mid'));
      if (maxv > 0 && value !== 0) {
        var seg = el('i', value < 0 ? 'neg' : 'pos');
        seg.style.width = (50 * Math.abs(value) / maxv) + '%';
        bar.appendChild(seg);
      }
      r.appendChild(bar);
      r.appendChild(el('span', 'val', fmtfn(value)));
      hover(r, function () {
        return [name, [['delta', fmtfn(value)]]];
      });
      sec.appendChild(r);
      return r;
    }
    phases.slice(0, 14).forEach(function (p) {
      var r = row(p.phase, p.delta_s,
          p.appeared ? 'appeared' : p.vanished ? 'vanished' : null);
      hover(r, function () {
        return [p.phase, [
          ['before', fmtS(p.before_s)],
          ['after', fmtS(p.after_s)],
          ['delta', fmtSigned(p.delta_s)]
        ]];
      });
    });
    if (doc.unattributed_s)
      row('(unattributed)', doc.unattributed_s);
    if (phases.length > 14)
      sec.appendChild(el('p', 'so-note',
          (phases.length - 14) + ' smaller phases omitted'));
    var e = doc.energy || null;
    if (e) {
      sec.appendChild(el('p', 'so-sub',
          'energy: ' + fmtJ(e.before_j) + ' → ' + fmtJ(e.after_j) +
          ' (' + fmtJSigned(e.delta_j) + ') — active joules ' +
          'attributed per phase, residual = idle + background change'));
      var emax = 0;
      (e.phases || []).forEach(function (p) {
        emax = Math.max(emax, Math.abs(p.delta_j));
      });
      if (e.unattributed_j)
        emax = Math.max(emax, Math.abs(e.unattributed_j));
      (e.phases || []).slice(0, 14).forEach(function (p) {
        var r = row(p.phase, p.delta_j,
            p.appeared ? 'appeared' : p.vanished ? 'vanished' : null,
            emax, fmtJSigned);
        hover(r, function () {
          return [p.phase, [
            ['before', fmtJ(p.before_j)],
            ['after', fmtJ(p.after_j)],
            ['delta', fmtJSigned(p.delta_j)]
          ]];
        });
      });
      if (e.unattributed_j)
        row('(idle+background)', e.unattributed_j, null, emax,
            fmtJSigned);
    }
    var resources = doc.resources || [];
    if (resources.length)
      dataTable(sec, 'per-resource deltas',
          ['resource', 'busy', 'dependency', 'contention', 'tail'],
          resources.map(function (r) {
            return [r.resource, fmtSigned(r.busy_delta_s),
                fmtSigned(r.dependency_delta_s),
                fmtSigned(r.contention_delta_s),
                fmtSigned(r.tail_delta_s)];
          }));
  }

  // ------------------------------------------------------ engine tab
  function renderEngine(doc) {
    var sec = section('Engine',
        'Host-side self-profile (docs/SELFTRACE.md): where the ' +
        'engine’s own wall-clock went, not the simulated ' +
        'schedule’s. Categories are so::trace spans; workers ' +
        'are ThreadPool threads.');
    var wall = doc.wall_s || 0;
    var cats = doc.categories || {};
    var parts = Object.keys(cats).map(function (name) {
      return [name, cats[name].total_s || 0];
    }).sort(function (a, b) { return b[1] - a[1]; });
    if (parts.length) {
      sec.appendChild(el('p', 'so-note',
          'wall ' + fmtS(wall) + ' · ' +
          fmtNum(doc.spans || 0) + ' span(s)' +
          (doc.dropped ? ' · ' + fmtNum(doc.dropped) +
              ' dropped (ring overflow)' : '')));
      stackedBar(sec, parts, wall, phaseColor);
      phaseLegend(sec, parts);
      dataTable(sec, 'inclusive wall time by category (nested spans ' +
          'overlap, so shares can sum past 100%)',
          ['category', 'spans', 'total', 'share of wall'],
          parts.map(function (p) {
            return [p[0], fmtNum(cats[p[0]].count || 0), fmtS(p[1]),
                wall > 0 ? (100 * p[1] / wall).toFixed(1) + '%' : '-'];
          }));
    }
    var workers = doc.workers || [];
    if (workers.length) {
      var strips = el('div');
      workers.forEach(function (w) {
        var row = el('div', 'so-striprow');
        row.appendChild(el('span', 'name', 't' + w.tid));
        var strip = el('div', 'so-strip');
        var busy = w.busy_s || 0;
        var idle = Math.max(0, wall - busy);
        [['busy', busy, '--busy'],
         ['idle', idle, '--cause-tail']].forEach(function (part) {
          if (!(part[1] > 0)) return;
          var seg = el('i');
          seg.style.background = cssVar(part[2]);
          seg.style.flexGrow = String(part[1]);
          hover(seg, function () {
            return ['t' + w.tid + ' · ' + part[0],
                [['seconds', fmtS(part[1])],
                 ['jobs', fmtNum(w.jobs || 0)]]];
          });
          strip.appendChild(seg);
        });
        row.appendChild(strip);
        row.appendChild(el('span', 'val',
            (100 * (w.busy_frac || 0)).toFixed(1) + '% busy'));
        strips.appendChild(row);
      });
      sec.appendChild(strips);
    }
    var qw = doc.queue_wait || null;
    var cache = doc.cache || null;
    var notes = [];
    if (qw && qw.count)
      notes.push('queue wait: p50 ' + fmtS(qw.p50_s) + ', p95 ' +
          fmtS(qw.p95_s) + ' over ' + fmtNum(qw.count) + ' job(s)');
    if (cache && (cache.hits || cache.misses))
      notes.push('cache probes: ' + fmtNum(cache.hits) + ' hit(s) @ ' +
          fmtS(cache.hit_mean_s) + ' · ' + fmtNum(cache.misses) +
          ' miss(es) @ ' + fmtS(cache.miss_mean_s));
    if (notes.length)
      sec.appendChild(el('p', 'so-note', notes.join(' · ')));
  }

  // ------------------------------------------------------------ main
  try {
    (DATA.schedules || []).forEach(renderGantt);
    (DATA.profiles || []).forEach(function (p) {
      renderProfile(p.label, p.doc);
    });
    if (DATA.diff) renderDiff(DATA.diff);
    if (DATA.self_profile) renderEngine(DATA.self_profile);
    (DATA.records || []).forEach(function (r) {
      if (r.doc && Array.isArray(r.doc.cells))
        renderCellsRecord(r.label, r.doc);
      else renderGenericRecord(r.label, r.doc);
    });
    renderHistory(DATA.history || [], DATA.verdict || null);
    if (!app.children.length)
      app.appendChild(el('p', 'so-error',
          'nothing to render: the report was built with no inputs'));
  } catch (err) {
    var fail = el('p', 'so-error',
        'explorer failed to render: ' + err.message);
    app.appendChild(fail);
    throw err;
  }
})();
)SOJS";

} // namespace so::report::assets
