"""Project 1 demo: responsive thumbnail rendering on real threads.

A real event-dispatch thread owns the widgets; a work-stealing pool
scales the images (compute realised as sleeps so the demo takes visible
wall time on any machine).  Thumbnails stream into the ListView while a
"user" keeps clicking — and every click is serviced promptly, because
the EDT never runs the scaling work.  Compare the naive design at the
end, where the same clicks wait for seconds.

Run:  python examples/thumbnails_responsive.py
"""

import time

from repro.apps import make_image_folder
from repro.apps.images import ThumbnailRenderer
from repro.executor import create
from repro.gui import EventDispatchThread, Window


def responsive_design():
    print("== Parallel Task design: scaling on the pool, updates via the EDT ==")
    images = make_image_folder(12, seed=7, min_side=48, max_side=96)
    with EventDispatchThread("demo-edt") as edt, create(
        "threads", cores=4, compute_mode="sleep", time_scale=1e4
    ) as pool:
        window = Window(edt, "Thumbnails")
        listview = window.list_view("thumbs")
        progress = window.progress_bar(len(images))

        def show(thumb):
            listview.add_item(thumb.name)
            progress.increment()

        renderer = ThumbnailRenderer(pool, target_side=16, on_thumbnail=show, edt=edt)

        click_latencies = []
        start = time.monotonic()
        mt = renderer.runtime.spawn_multi(renderer._scale_one, list(images))
        while not mt.done():
            t0 = time.monotonic()
            edt.invoke_and_wait(lambda: None)  # a user click needing the EDT
            click_latencies.append(time.monotonic() - t0)
            time.sleep(0.02)
        mt.results()
        edt.drain()
        wall = time.monotonic() - start

        print(f"rendered {len(listview.items)} thumbnails in {wall:.2f}s wall time")
        print(f"progress bar complete: {progress.complete}")
        print(f"user clicks serviced: {len(click_latencies)}")
        print(f"worst click latency: {max(click_latencies) * 1000:.1f} ms  <- stays small")


def naive_design():
    print("\n== naive design: scaling ON the EDT (what not to do) ==")
    images = make_image_folder(6, seed=7, min_side=48, max_side=96)
    with EventDispatchThread("naive-edt") as edt:
        window = Window(edt, "Thumbnails")
        listview = window.list_view("thumbs")

        from repro.apps.images import scale_image

        def scale_on_edt(img):
            time.sleep(0.15)  # the scaling work, hogging the UI thread
            listview.add_item(scale_image(img, 16).name)

        for img in images:
            edt.invoke_later(scale_on_edt, img)

        t0 = time.monotonic()
        edt.invoke_and_wait(lambda: None)  # one user click...
        latency = time.monotonic() - t0
        print(f"one click waited {latency * 1000:.0f} ms behind the queued scaling jobs")
        print(f"(max EDT queue latency: {edt.stats.max_queue_latency * 1000:.0f} ms)")


if __name__ == "__main__":
    responsive_design()
    naive_design()
